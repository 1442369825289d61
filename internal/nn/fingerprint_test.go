package nn

import "testing"

func TestFingerprintSensitivity(t *testing.T) {
	a := MLP(10, 2)
	b := MLP(10, 2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical architectures must share a fingerprint")
	}
	c := MLP(11, 2)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different input widths must change the fingerprint")
	}
	d := CNN(Shape{C: 1, H: 8, W: 8}, 10)
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("different architectures must change the fingerprint")
	}
}
