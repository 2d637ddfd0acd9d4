package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/memcache"
	"geomds/internal/registry"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 999, want: 90, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 9999, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
		{n: 100000, want: 99.99, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-nearestRank(tc.n, got) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, got, tc.n-nearestRank(tc.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	d := newDist([]float64{5, 1, 4, 2, 3})
	if d.p50() != 3 || d.at(99) != 5 || d.at(1) != 1 {
		t.Fatalf("p50 %v p99 %v p1 %v of 1..5", d.p50(), d.at(99), d.at(1))
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatalf("median of 1..4 = %v", median([]float64{4, 1, 3, 2}))
	}
}

func TestSelfPerOpSubtractsChildBusyTime(t *testing.T) {
	got := selfPerOp(10*time.Millisecond, 4, 3*time.Millisecond, time.Millisecond)
	if got != 1500*time.Microsecond {
		t.Fatalf("self per op = %v, want 1.5ms", got)
	}
	if selfPerOp(time.Second, 0) != 0 {
		t.Fatal("no calls must give 0")
	}
}

// fakeAPI answers Get and Create with fixed results.
type fakeAPI struct {
	registry.API
	entry registry.Entry
	err   error
}

func (f *fakeAPI) Get(context.Context, string) (registry.Entry, error) { return f.entry, f.err }
func (f *fakeAPI) Create(context.Context, registry.Entry) (registry.Entry, error) {
	return f.entry, f.err
}

func TestDecoratorsPassCalleeResultsThrough(t *testing.T) {
	sentinel := errors.New("callee failed")
	e := registry.Entry{Name: "f", Size: 7, Version: 3}
	for _, on := range []bool{false, true} {
		tr := NewTracer()
		tr.Enable(on)
		for _, inner := range []*fakeAPI{{entry: e}, {entry: e, err: sentinel}} {
			api := traceAPI(tr, "layer", inner)
			got, err := api.Get(context.Background(), "f")
			if err != inner.err || !reflect.DeepEqual(got, inner.entry) {
				t.Errorf("tracing %v: Get = %+v, %v; callee returned %+v, %v", on, got, err, inner.entry, inner.err)
			}
			got, err = api.Create(context.Background(), e)
			if err != inner.err || !reflect.DeepEqual(got, inner.entry) {
				t.Errorf("tracing %v: Create = %+v, %v; callee returned %+v, %v", on, got, err, inner.entry, inner.err)
			}
		}
		if on && tr.Layer("layer.Get").Errs != 1 {
			t.Errorf("traced Get errors = %d, want 1", tr.Layer("layer.Get").Errs)
		}
	}
}

func TestStoreDecoratorPassesConflictsThrough(t *testing.T) {
	tr := NewTracer()
	tr.Enable(true)
	cache := memcache.New(memcache.Config{})
	s := traceStore(tr, cache)
	first, err := s.CAS("k", []byte("v"), 0, 0)
	if err != nil || first.Version != 1 {
		t.Fatalf("first create-CAS = %+v, %v", first, err)
	}
	if _, err := s.CAS("k", []byte("w"), 0, 0); !errors.Is(err, memcache.ErrVersionConflict) {
		t.Fatalf("second create-CAS = %v, want the version conflict", err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, memcache.ErrNotFound) {
		t.Fatalf("Get of a missing key = %v, want not found", err)
	}
	if cas, conflicts := sumCAS([]*memcache.Cache{cache}); cas != 2 || conflicts != 1 {
		t.Fatalf("cas %d conflicts %d, want 2 and 1", cas, conflicts)
	}
	if tr.Layer("memcache.CAS").Errs != 1 || tr.Layer("memcache.Get").Errs != 1 {
		t.Fatal("the decorator must see the callee's errors")
	}
}

// fakeService fails every Lookup.
type fakeService struct {
	core.MetadataService
	err error
}

func (f *fakeService) Lookup(context.Context, cloud.SiteID, string) (registry.Entry, error) {
	return registry.Entry{Name: "partial"}, f.err
}

func TestTimedServicePassesErrorsThrough(t *testing.T) {
	sentinel := errors.New("unreachable")
	s := &timedService{MetadataService: &fakeService{err: sentinel}}
	got, err := s.Lookup(context.Background(), 0, "x")
	if err != sentinel || got.Name != "partial" {
		t.Fatalf("Lookup = %+v, %v", got, err)
	}
	if len(s.lookup) != 1 {
		t.Fatalf("%d lookups timed, want 1", len(s.lookup))
	}
}

func TestSpansNestUnderTheirRequest(t *testing.T) {
	tr := NewTracer()
	tr.Enable(true)
	outer := traceAPI(tr, "outer", traceAPI(tr, "inner", &fakeAPI{}))
	if _, err := outer.Get(withRequest(context.Background(), 42), "k"); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	inner, out := tr.spans[0], tr.spans[1]
	if inner.Name != "inner.Get" || out.Name != "outer.Get" || inner.Parent != out.ID || inner.Req != 42 || out.Req != 42 || out.Parent != 0 {
		t.Fatalf("spans %+v", tr.spans)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := newRWLoad(7), newRWLoad(7), newRWLoad(8)
	sa, sb, sc := a.nextOps(5000), b.nextOps(5000), c.nextOps(5000)
	same := func(x, y []rwOp) bool {
		for i := range x {
			if x[i].kind != y[i].kind || x[i].key.name != y[i].key.name || x[i].loc != y[i].loc || !x[i].key.entry.Equal(y[i].key.entry) {
				return false
			}
		}
		return true
	}
	if !same(sa, sb) {
		t.Fatal("wire_rw: one seed gave two op streams")
	}
	if same(sa, sc) {
		t.Fatal("wire_rw: two seeds gave one op stream")
	}
	za, zb := newZipfLoad(7).nextOps(5000), newZipfLoad(7).nextOps(5000)
	for i := range za {
		if za[i].write != zb[i].write || za[i].rank != zb[i].rank || !za[i].entry.Equal(zb[i].entry) {
			t.Fatalf("wire_cached_zipf: op %d differs between two streams of one seed", i)
		}
	}
}

func TestWindowMediansIgnoreADisturbedMinority(t *testing.T) {
	r := phaseResult{offered: 2000, ops: 5000, size: 1000}
	for i, c := range []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second, 13 * time.Second, 14 * time.Second} {
		r.marks = append(r.marks, mark{cpu: c, busy: uint64(100 * i)})
	}
	for i := 0; i < r.ops; i++ {
		lat := 1.0
		if i >= 3000 && i < 4000 {
			lat = 50 // one disturbed window
		}
		r.samples = append(r.samples, sample{op: i, class: classGet, ms: lat})
		r.opLat = append(r.opLat, lat)
	}
	r.completed, r.elapsed = true, 2500*time.Millisecond
	if got := r.windowP50(classGet); got != 1 {
		t.Errorf("window p50 = %v, want 1", got)
	}
	if got := r.windowCPUPerOp(); got != 1000 {
		t.Errorf("window CPU per op = %v us, want 1000", got)
	}
	if !r.passes(20) {
		t.Error("one bad window of five must not fail the rate")
	}
	for i := 1000; i < 3000; i++ {
		r.opLat[i] = 50
	}
	if r.passes(20) {
		t.Error("three bad windows of five must fail the rate")
	}
}

func TestClosedLoopThroughputCountsUnstolenTime(t *testing.T) {
	// Three windows, each losing 20% of the machine's time.
	r := closedResult{perWindow: []int{160, 160, 160}}
	for i := 0; i <= 3; i++ {
		r.marks = append(r.marks, mark{steal: uint64(20 * i), busy: uint64(100 * i)})
	}
	if got := r.throughput(); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("throughput %v ops/s, want 2000", got)
	}
}

func TestCalmWindowsSkipStolenTime(t *testing.T) {
	// Windows 1, 2 and 3 lost 30%, 40% and 20% of the host's CPU time to
	// the hypervisor.
	steal := []uint64{0, 0, 30, 70, 90, 90}
	r := phaseResult{offered: 2000, ops: 5000, size: 1000}
	for i, s := range steal {
		r.marks = append(r.marks, mark{cpu: time.Duration(i) * time.Second, steal: s, busy: uint64(100 * i)})
	}
	for i := 0; i < r.ops; i++ {
		lat := 1.0
		if i >= 1000 && i < 4000 {
			lat = 9
		}
		r.samples = append(r.samples, sample{op: i, class: classPut, ms: lat})
	}
	if got := r.calm(); !reflect.DeepEqual(got, []int{0, 4}) {
		t.Fatalf("calm windows %v, want [0 4]", got)
	}
	if got := calmest([]float64{0.3, 0.2, 0.4, 0.25}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("calmest of a run stolen throughout = %v, want its least stolen window [1]", got)
	}
	if got := r.windowP50(classPut); got != 1 {
		t.Fatalf("window p50 over calm windows = %v, want 1", got)
	}
	if got := calmest([]float64{0, 0, 0}); len(got) != 3 {
		t.Fatalf("with nothing stolen every window is calm, got %v", got)
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json and the
// metric tables the program reports from in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}
