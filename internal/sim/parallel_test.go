package sim

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestSweepParallelMatchesSerial(t *testing.T) {
	// The parallel sweep must be bit-identical to the serial one except
	// for wall-clock timings.
	serialEnv := quickEnv(t, 40)
	serial, err := serialEnv.SweepParallelContext(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parEnv := quickEnv(t, 40)
	parallel, err := parEnv.SweepParallelContext(context.Background(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Points) != len(parallel.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(parallel.Points))
	}
	for i := range serial.Points {
		s, p := serial.Points[i], parallel.Points[i]
		if s.Size != p.Size {
			t.Fatalf("point %d size %d vs %d", i, s.Size, p.Size)
		}
		for r := range s.TVOFPayoff {
			if s.TVOFPayoff[r] != p.TVOFPayoff[r] ||
				s.RVOFPayoff[r] != p.RVOFPayoff[r] ||
				s.TVOFSize[r] != p.TVOFSize[r] ||
				s.RVOFSize[r] != p.RVOFSize[r] ||
				s.TVOFRep[r] != p.TVOFRep[r] ||
				s.RVOFRep[r] != p.RVOFRep[r] ||
				s.Retries[r] != p.Retries[r] {
				t.Fatalf("point %d rep %d: serial and parallel metrics differ", i, r)
			}
		}
	}
}

func TestSweepParallelDefaultWorkers(t *testing.T) {
	env := quickEnv(t, 41)
	sweep, err := env.SweepParallelContext(context.Background(), 0, nil) // 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sweep.Points {
		if len(p.TVOFPayoff) != env.Config.Repetitions {
			t.Fatalf("point %d has %d replicates", p.Size, len(p.TVOFPayoff))
		}
	}
}

func TestSweepParallelProgressThreadSafe(t *testing.T) {
	env := quickEnv(t, 42)
	var mu sync.Mutex
	count := 0
	_, err := env.SweepParallelContext(context.Background(), 4, func(string) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(env.Config.ProgramSizes) * env.Config.Repetitions
	if count != want {
		t.Fatalf("progress callbacks = %d, want %d", count, want)
	}
}

func TestSweepParallelPropagatesError(t *testing.T) {
	env := quickEnv(t, 43)
	// Force failure: a program size the catalog cannot supply.
	env.Config.ProgramSizes = []int{7}
	if _, err := env.SweepParallelContext(context.Background(), 2, nil); err == nil {
		t.Fatal("missing-size sweep succeeded")
	}
}

func TestSweepParallelReturnsEarliestCellError(t *testing.T) {
	// Both unsupplied sizes fail; whichever worker finishes first, the
	// sweep must report the earlier cell in (size, rep) order.
	for _, workers := range []int{1, 4} {
		env := quickEnv(t, 44)
		env.Config.ProgramSizes = []int{32, 7, 9}
		_, err := env.SweepParallelContext(context.Background(), workers, nil)
		if err == nil || !strings.Contains(err.Error(), "size 7") {
			t.Fatalf("workers=%d: error %v, want the size-7 cell's", workers, err)
		}
	}
}
