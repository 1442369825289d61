package fl

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// checkGoroutines records the running goroutine count and, when the test
// ends, polls runtime.NumGoroutine back down to it: a run's goroutines
// (slot-pool workers, the wire executor's readers) exit asynchronously after their close, so the check
// waits up to five seconds before it reports the stacks of what is still
// running.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines running after the test, %d before it:\n%s", n, base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// expelEveryone is goldenFedAvg that expels every client it aggregates, so
// a run ends in the "all clients expelled" error.
type expelEveryone struct{ goldenFedAvg }

func (expelEveryone) Aggregate(s *ServerCtx, updates []Update) {
	for _, u := range updates {
		s.Expel(u.Client)
	}
	FedAvgStep(s, updates)
}

// TestNoGoroutineLeak runs each way a partial-participation run can end
// under checkGoroutines: Run, Resume, the all-clients-expelled error, and
// a loopback Serve with one RunWorkerOpts worker.
func TestNoGoroutineLeak(t *testing.T) {
	network, shards, test := poolSetup(t, 8)
	cfg := Config{Rounds: 6, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 11, ParticipationFraction: 0.5}

	// The run checkpoints at round 3 and the resume continues from there.
	ck := cfg
	ck.CheckpointEvery = 3
	var blob []byte
	t.Run("run", func(t *testing.T) {
		checkGoroutines(t)
		c := ck
		c.OnCheckpoint = func(round int, data []byte) {
			if round == 3 {
				blob = append([]byte(nil), data...)
			}
		}
		if _, err := Run(c, goldenFedAvg{}, network, shards, test); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("resume", func(t *testing.T) {
		if blob == nil {
			t.Fatal("no round-3 checkpoint captured")
		}
		checkGoroutines(t)
		if _, err := Resume(ck, goldenFedAvg{}, network, shards, test, blob); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("all-expelled", func(t *testing.T) {
		checkGoroutines(t)
		_, err := Run(cfg, expelEveryone{}, network, shards, test)
		if err == nil || !strings.Contains(err.Error(), "all clients expelled") {
			t.Fatalf("err = %v, want the all-clients-expelled error", err)
		}
	})

	t.Run("serve", func(t *testing.T) {
		checkGoroutines(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		workerErr := make(chan error, 1)
		go func() {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				workerErr <- err
				return
			}
			workerErr <- RunWorkerOpts(conn, WorkerOptions{Index: 0, Workers: 1}, cfg, wireAvg{}, network, shards, test.Name)
		}()
		if _, err := Serve(ln, ServeOptions{Workers: 1}, cfg, wireAvg{}, network, shards, test); err != nil {
			t.Fatal(err)
		}
		if err := <-workerErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	})
}
