package core

import (
	"fmt"
	"testing"
	"time"
)

func TestPropagatorFixedBatchLimitWithoutOption(t *testing.T) {
	f := newTestFabric()
	p := NewPropagator(f, time.Hour, 17)
	defer p.Close()
	if got := p.BatchLimit(); got != 17 {
		t.Fatalf("BatchLimit = %d, want the fixed 17", got)
	}
	p.Enqueue(0, 1, testEntry("fixed", 0))
	p.FlushNow(tctx)
	if got := p.BatchLimit(); got != 17 {
		t.Fatalf("BatchLimit moved to %d without WithAdaptiveBatch", got)
	}
}

func TestPropagatorAdaptiveBatchShrinksOnSlowRounds(t *testing.T) {
	f := newTestFabric()
	p := NewPropagator(f, time.Hour, 64, WithAdaptiveBatch(8, 256, 10*time.Millisecond))
	defer p.Close()
	if got := p.BatchLimit(); got != 64 {
		t.Fatalf("starting BatchLimit = %d, want 64", got)
	}
	// Rounds far past the 10ms target halve the limit down to the floor.
	for i := 0; i < 6; i++ {
		p.adaptBatch(50*time.Millisecond, 10)
	}
	if got := p.BatchLimit(); got != 8 {
		t.Fatalf("BatchLimit after sustained slow rounds = %d, want the 8 floor", got)
	}
}

func TestPropagatorAdaptiveBatchGrowsWithHeadroom(t *testing.T) {
	f := newTestFabric()
	p := NewPropagator(f, time.Hour, 64, WithAdaptiveBatch(8, 256, 10*time.Millisecond))
	defer p.Close()
	// Rounds finishing well under half the target grow the limit toward the
	// cap, additively.
	for i := 0; i < 32; i++ {
		p.adaptBatch(time.Millisecond, 10)
	}
	if got := p.BatchLimit(); got != 256 {
		t.Fatalf("BatchLimit after sustained fast rounds = %d, want the 256 cap", got)
	}
}

func TestPropagatorAdaptiveBatchIgnoresEmptyRounds(t *testing.T) {
	f := newTestFabric()
	p := NewPropagator(f, time.Hour, 64, WithAdaptiveBatch(8, 256, 10*time.Millisecond))
	defer p.Close()
	// An idle tick's round latency says nothing about per-batch cost.
	for i := 0; i < 6; i++ {
		p.adaptBatch(50*time.Millisecond, 0)
	}
	if got := p.BatchLimit(); got != 64 {
		t.Fatalf("BatchLimit moved to %d on empty rounds", got)
	}
}

func TestPropagatorAdaptiveLimitDrivesEarlyFlush(t *testing.T) {
	f := newTestFabric()
	// Pin the adaptive limit at 3 (floor == cap): the third enqueue must
	// trigger the early flush exactly like a fixed maxBatch of 3.
	p := NewPropagator(f, time.Hour, 64, WithAdaptiveBatch(3, 3, time.Hour))
	defer p.Close()
	if got := p.BatchLimit(); got != 3 {
		t.Fatalf("pinned BatchLimit = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		p.Enqueue(0, 1, testEntry(fmt.Sprintf("adaptive%d", i), 0))
	}
	inst, _ := f.Instance(1)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if entryCount(t, inst) == 3 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Errorf("adaptive early flush did not run; destination holds %d entries", entryCount(t, inst))
}
