package nn

import (
	"math"

	"repro/internal/vecmath"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of a batch of
// logits (batch×classes, row-major) against integer labels, and, when
// dlogits is non-nil, writes the gradient of the mean loss with respect to
// the logits into it (softmax(x) − onehot(y), scaled by 1/batch).
//
// The per-row reduction (max, exp-sum, log) always runs in float64 —
// numerically it is the one place fp32 accumulation visibly hurts, and the
// loss scalar feeds the training-curve metrics, which stay float64
// everywhere. Only the logit
// values and the gradient rows carry the F precision; the float32
// specialization additionally evaluates the per-element exponentials with
// the fp32 polynomial vecmath.Exp32 (the sum and log still accumulate in
// float64), trading ~1e-7 relative error — below the fp32 gradient
// rounding — for staying off the float64 libm on the hot path.
func SoftmaxCrossEntropy[F Float](logits []F, labels []int, classes int, dlogits []F) float64 {
	if ls, ok := any(logits).([]float32); ok {
		return softmaxCrossEntropy32(ls, labels, classes, any(dlogits).([]float32))
	}
	batch := len(labels)
	invB := 1.0 / float64(batch)
	var total float64
	for s := 0; s < batch; s++ {
		row := logits[s*classes : (s+1)*classes]
		maxv := float64(row[0])
		for _, v := range row[1:] {
			if fv := float64(v); fv > maxv {
				maxv = fv
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v) - maxv)
		}
		logSum := math.Log(sum) + maxv
		y := labels[s]
		total += logSum - float64(row[y])
		if dlogits != nil {
			drow := dlogits[s*classes : (s+1)*classes]
			for j, v := range row {
				drow[j] = F(math.Exp(float64(v)-logSum) * invB)
			}
			drow[y] -= F(invB)
		}
	}
	return total * invB
}

// softmaxCrossEntropy32 mirrors the generic body for float32 logits:
// row max, exp-sum, and the loss total stay in float64 (and the log-sum
// uses the float64 math.Log — it runs once per sample, not per class),
// but each e^x is the single-precision vecmath.Exp32.
func softmaxCrossEntropy32(logits []float32, labels []int, classes int, dlogits []float32) float64 {
	batch := len(labels)
	invB := 1.0 / float64(batch)
	var total float64
	for s := 0; s < batch; s++ {
		row := logits[s*classes : (s+1)*classes]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += float64(vecmath.Exp32(v - maxv))
		}
		logSum := math.Log(sum) + float64(maxv)
		y := labels[s]
		total += logSum - float64(row[y])
		if dlogits != nil {
			drow := dlogits[s*classes : (s+1)*classes]
			lsf := float32(logSum)
			ib := float32(invB)
			for j, v := range row {
				drow[j] = vecmath.Exp32(v-lsf) * ib
			}
			drow[y] -= ib
		}
	}
	return total * invB
}

// Argmax returns the index of the largest element of row.
func Argmax[F Float](row []F) int {
	best, bi := row[0], 0
	for i, v := range row[1:] {
		if v > best {
			best = v
			bi = i + 1
		}
	}
	return bi
}
