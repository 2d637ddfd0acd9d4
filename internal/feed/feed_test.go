package feed

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"geomds/internal/metrics"
)

func collect(t *testing.T, sub *Subscription, n int) []Event {
	t.Helper()
	out := make([]Event, 0, n)
	timeout := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("subscription ended early (%v) after %d/%d events", sub.Err(), len(out), n)
			}
			out = append(out, ev)
		case <-timeout:
			t.Fatalf("timed out after %d/%d events", len(out), n)
		}
	}
	return out
}

func TestLogAppendAssignsSequence(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 5; i++ {
		if got := l.Append(OpPut, fmt.Sprintf("k%d", i), []byte("v")); got != uint64(i) {
			t.Fatalf("append %d: seq = %d", i, got)
		}
	}
	if l.Seq() != 5 {
		t.Fatalf("head = %d, want 5", l.Seq())
	}
}

func TestLogPublishExternalSequence(t *testing.T) {
	l := NewLog()
	// WAL sequences may skip records that publish no event.
	for _, seq := range []uint64{3, 4, 7} {
		if got := l.Publish(Event{Seq: seq, Op: OpPut, Name: "k"}); got != seq {
			t.Fatalf("publish seq %d returned %d", seq, got)
		}
	}
	// Non-monotonic external sequences are refused.
	if got := l.Publish(Event{Seq: 5, Op: OpPut, Name: "k"}); got != 0 {
		t.Fatalf("non-monotonic publish accepted, seq %d", got)
	}
	if l.Seq() != 7 {
		t.Fatalf("head = %d, want 7", l.Seq())
	}
}

func TestSubscribeReplaysBacklogThenTails(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(OpPut, fmt.Sprintf("k%d", i), nil)
	}
	sub, err := l.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	l.Append(OpDelete, "k0", nil)
	got := collect(t, sub, 7)
	for i, ev := range got {
		if ev.Seq != uint64(5+i) {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, 5+i)
		}
	}
	if got[6].Op != OpDelete {
		t.Fatalf("tail event op = %v", got[6].Op)
	}
}

func TestSubscribeCursorOutsideWindow(t *testing.T) {
	l := NewLog(WithCapacity(4))
	for i := 0; i < 10; i++ {
		l.Append(OpPut, "k", nil)
	}
	// Events 1..6 were evicted; cursor 2 is compacted.
	if _, err := l.Subscribe(2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("stale cursor: err = %v, want ErrCompacted", err)
	}
	// A cursor beyond the head (from another incarnation) is invalid too.
	if _, err := l.Subscribe(99); !errors.Is(err, ErrCompacted) {
		t.Fatalf("future cursor: err = %v, want ErrCompacted", err)
	}
	// The newest retained window resumes fine.
	sub, err := l.Subscribe(6)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := collect(t, sub, 4)
	if got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("window replay = %d..%d, want 7..10", got[0].Seq, got[3].Seq)
	}
}

func TestStartAtSetsFloor(t *testing.T) {
	l := NewLog()
	l.StartAt(100) // a shard recovered its WAL to seq 100
	if _, err := l.Subscribe(50); !errors.Is(err, ErrCompacted) {
		t.Fatalf("pre-restart cursor: err = %v, want ErrCompacted", err)
	}
	sub, err := l.Subscribe(100)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if seq := l.Publish(Event{Seq: 101, Op: OpPut, Name: "k"}); seq != 101 {
		t.Fatalf("publish after StartAt: seq %d", seq)
	}
	if got := collect(t, sub, 1); got[0].Seq != 101 {
		t.Fatalf("tail seq = %d", got[0].Seq)
	}
}

func TestSlowSubscriberDroppedWithLagged(t *testing.T) {
	l := NewLog()
	sub, err := l.Subscribe(0, WithBuffer(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append(OpPut, "k", nil)
	}
	// Drain what arrived before the drop, then observe the closed channel.
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 2 {
		t.Fatalf("delivered %d events before drop, want 2", n)
	}
	if !errors.Is(sub.Err(), ErrLagged) {
		t.Fatalf("err = %v, want ErrLagged", sub.Err())
	}
	// The log itself lost nothing: resume from the last delivered cursor.
	resumed, err := l.Subscribe(2)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	got := collect(t, resumed, 3)
	if got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("resume replay = %d..%d, want 3..5", got[0].Seq, got[2].Seq)
	}
}

func TestPrefixFilter(t *testing.T) {
	l := NewLog()
	l.Append(OpPut, "a/1", nil)
	l.Append(OpPut, "b/1", nil)
	l.Append(OpPut, "a/2", nil)
	sub, err := l.Subscribe(0, WithPrefix("a/"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := collect(t, sub, 2)
	if got[0].Name != "a/1" || got[1].Name != "a/2" {
		t.Fatalf("filtered names = %q, %q", got[0].Name, got[1].Name)
	}
}

func TestLogCloseEndsSubscriptions(t *testing.T) {
	l := NewLog()
	sub, err := l.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, ok := <-sub.Events(); ok {
		t.Fatal("events channel still open after log close")
	}
	if !errors.Is(sub.Err(), ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", sub.Err())
	}
	if _, err := l.Subscribe(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("subscribe after close: err = %v", err)
	}
	if seq := l.Append(OpPut, "k", nil); seq != 0 {
		t.Fatalf("publish after close returned seq %d", seq)
	}
}

func TestSubscriptionCloseIdempotent(t *testing.T) {
	l := NewLog()
	sub, err := l.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close()
	if sub.Err() != nil {
		t.Fatalf("clean close err = %v", sub.Err())
	}
	l.Append(OpPut, "k", nil) // must not panic on the closed channel
}

func TestLogMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	l := NewLog(WithLogMetrics(reg))
	sub, _ := l.Subscribe(0)
	l.Append(OpPut, "k", nil)
	if got := reg.Counter("feed_events_total").Value(); got != 1 {
		t.Fatalf("feed_events_total = %d", got)
	}
	if got := reg.Gauge("feed_subscribers").Value(); got != 1 {
		t.Fatalf("feed_subscribers = %d", got)
	}
	sub.Close()
	if got := reg.Gauge("feed_subscribers").Value(); got != 0 {
		t.Fatalf("feed_subscribers after close = %d", got)
	}
}

// TestPublishCarriesVersion asserts the committed store version travels
// with a put event to its subscribers unchanged.
func TestPublishCarriesVersion(t *testing.T) {
	l := NewLog()
	sub, err := l.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	l.Publish(Event{Op: OpPut, Name: "k", Value: []byte("v"), Version: 7})
	if got := collect(t, sub, 1)[0]; got.Version != 7 || got.Name != "k" {
		t.Fatalf("delivered %+v, want k at version 7", got)
	}
}
