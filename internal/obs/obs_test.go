package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestRecorderRingAndSeq(t *testing.T) {
	r := newRecorder(7, 3)
	for i := 0; i < 5; i++ {
		r.Record(Event{T: float64(i), Kind: EvAttach})
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	evs := r.Drain()
	if len(evs) != 3 {
		t.Fatalf("drained %d, want 3", len(evs))
	}
	// Oldest two were overwritten: survivors are seqs 2,3,4 with UE
	// stamped.
	for i, ev := range evs {
		if ev.Seq != i+2 || ev.UE != 7 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if r.Drain() != nil {
		t.Fatal("second drain not empty")
	}
	// Seq stays dense across the reset.
	r.Record(Event{T: 9})
	if got := r.Drain(); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("post-reset drain = %+v", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	sc := tel.Scope(3)
	if sc != nil {
		t.Fatal("nil telemetry handed out a scope")
	}
	var rec *Recorder
	rec.Record(Event{}) // must not panic
	var c *Counter
	c.Inc()
	c.Add(2)
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
	var sh *Shard
	if sh.Counter(MHandovers) != nil {
		t.Fatal("nil shard returned a live handle")
	}
	if tel.Drain() != nil || tel.Dropped() != 0 {
		t.Fatal("nil telemetry drained something")
	}
	if n := len(tel.Snapshot().Samples); n != 0 {
		t.Fatalf("nil telemetry snapshot has %d samples", n)
	}
}

func TestHistogramBucketing(t *testing.T) {
	g := NewRegistry()
	g.Histogram("h", "test", []float64{1, 2, 5})
	h := g.Shard(0).Histogram("h")
	for _, v := range []float64{0.5, 1, 1.5, 2.5, 10} {
		h.Observe(v)
	}
	snap := g.Snapshot()
	smp := snap.Samples[0]
	// Cumulative: le=1 sees {0.5, 1}, le=2 adds {1.5}, le=5 adds {2.5};
	// 10 lands in +Inf only.
	want := []int64{2, 3, 4}
	for i, b := range smp.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %g = %d, want %d", b.Le, b.Count, want[i])
		}
	}
	if smp.Count != 5 || smp.Sum != 15.5 {
		t.Fatalf("count/sum = %d/%g", smp.Count, smp.Sum)
	}
}

// TestSnapshotMergeOrderInvariance proves the determinism contract:
// the merged snapshot and its renderings are byte-identical no matter
// what order scopes were created or written in.
func TestSnapshotMergeOrderInvariance(t *testing.T) {
	build := func(order []int) ([]byte, []byte) {
		tel := New(Config{})
		for _, ue := range order {
			sc := tel.Scope(ue)
			for i := 0; i <= ue; i++ {
				sc.Shard.Counter(MHandovers).Inc()
				// Distinct fractional values make float accumulation
				// order visible if the merge were unordered.
				sc.Shard.Histogram(MFeedbackDelay).Observe(0.1 + float64(ue)/3)
			}
		}
		snap := tel.Snapshot()
		js, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return js, snap.PrometheusText()
	}
	j1, p1 := build([]int{0, 1, 2, 3, 4})
	j2, p2 := build([]int{4, 2, 0, 3, 1})
	if !bytes.Equal(j1, j2) {
		t.Fatal("snapshot JSON depends on scope creation order")
	}
	if !bytes.Equal(p1, p2) {
		t.Fatal("prometheus text depends on scope creation order")
	}
}

func TestConcurrentScopeCreation(t *testing.T) {
	tel := New(Config{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(ue int) {
			defer wg.Done()
			sc := tel.Scope(ue)
			sc.Shard.Counter(MHandovers).Inc()
			sc.Rec.Record(Event{T: float64(ue), Kind: EvAttach})
		}(i)
	}
	wg.Wait()
	if got := len(tel.Drain()); got != 16 {
		t.Fatalf("drained %d events, want 16", got)
	}
}

func TestDrainMergeOrder(t *testing.T) {
	tel := New(Config{})
	// Same timestamp across UEs: order must fall back to UE then Seq.
	tel.Scope(2).Rec.Record(Event{T: 1, Kind: EvRLF})
	tel.Scope(0).Rec.Record(Event{T: 1, Kind: EvRLF})
	tel.Scope(0).Rec.Record(Event{T: 1, Kind: EvBlackoutOpen})
	tel.Scope(1).Rec.Record(Event{T: 0.5, Kind: EvAttach})
	evs := tel.Drain()
	wantUE := []int{1, 0, 0, 2}
	for i, ev := range evs {
		if ev.UE != wantUE[i] {
			t.Fatalf("event %d from UE %d, want %d (%+v)", i, ev.UE, wantUE[i], evs)
		}
	}
	if evs[1].Kind != EvRLF || evs[2].Kind != EvBlackoutOpen {
		t.Fatal("same-T same-UE events lost their Seq order")
	}
}

// stableSortEvents is the reference order: the reflection-based stable
// sort SortEvents used before it switched to an unstable typed sort.
func stableSortEvents(evs []Event) {
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].T != evs[b].T {
			return evs[a].T < evs[b].T
		}
		if evs[a].UE != evs[b].UE {
			return evs[a].UE < evs[b].UE
		}
		return evs[a].Seq < evs[b].Seq
	})
}

// drainLikeBatch builds what a drain sorts: per-UE streams, each in
// time order with dense Seq, concatenated in ascending UE order. Times
// sit on a coarse grid so many events tie on T across UEs (and within
// a UE), which is where only the UE and Seq tie-breaks decide.
func drainLikeBatch(r *rand.Rand) []Event {
	var evs []Event
	for ue := -1; ue < r.Intn(40); ue++ {
		tt, seq := float64(r.Intn(3)), r.Intn(5)
		for k := r.Intn(12); k > 0; k-- {
			tt += 0.25 * float64(r.Intn(2))
			evs = append(evs, Event{UE: ue, Seq: seq, T: tt, Kind: EvMeasTrigger, Value: r.Float64()})
			seq++
		}
	}
	return evs
}

// TestSortEventsMatchesStableSort checks the unstable sort against the
// stable reference on random drain-shaped batches, shuffled and not:
// with unique (T, UE, Seq) keys both must give the same order.
func TestSortEventsMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		evs := drainLikeBatch(r)
		if trial%2 == 1 {
			r.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		}
		want := append([]Event(nil), evs...)
		stableSortEvents(want)
		SortEvents(evs)
		if !reflect.DeepEqual(evs, want) {
			t.Fatalf("trial %d: order differs from the stable sort:\n got %+v\nwant %+v", trial, evs, want)
		}
	}
	evs := drainLikeBatch(r)
	buf := make([]Event, len(evs))
	if allocs := testing.AllocsPerRun(20, func() { copy(buf, evs); SortEvents(buf) }); allocs != 0 {
		t.Fatalf("SortEvents allocates %v times per call", allocs)
	}
}

// BenchmarkSortEvents sorts a 1,000-UE drain of 8 events per UE.
func BenchmarkSortEvents(b *testing.B) {
	var src []Event
	r := rand.New(rand.NewSource(1))
	for ue := 0; ue < 1000; ue++ {
		tt := 10.0
		for seq := 0; seq < 8; seq++ {
			tt += 0.01 * float64(r.Intn(3))
			src = append(src, Event{UE: ue, Seq: seq, T: tt, Kind: EvRLF})
		}
	}
	buf := make([]Event, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		SortEvents(buf)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 0, UE: 3, T: 1.5, Kind: EvRLF, Cell: 12, Cause: "feedback-delay/loss"},
		{Seq: 1, UE: 3, T: 1.5, Kind: EvBlackoutOpen, Cell: 12, Fault: FaultOutage, Window: 2},
		{Seq: 2, UE: 3, T: 3.25, Kind: EvBlackoutClose, To: 14, Value: 1.75},
	}
	raw := MarshalNDJSON(in)
	out, err := ReadNDJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
	// Round-trip bytes are stable too.
	if !bytes.Equal(raw, MarshalNDJSON(out)) {
		t.Fatal("re-encoding decoded events changed bytes")
	}
	// Unknown fields are schema drift, not noise.
	if _, err := ReadNDJSON(strings.NewReader(`{"seq":0,"ue":1,"t":0,"kind":"attach","bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestPrometheusShape(t *testing.T) {
	tel := New(Config{})
	sc := tel.Scope(0)
	sc.Shard.Counter(MHandovers).Inc()
	sc.Shard.Counter(FailureSeries("missed-cell")).Inc()
	sc.Shard.Histogram(MBlackout).Observe(1.6)
	text := string(tel.Snapshot().PrometheusText())
	for _, want := range []string{
		"# TYPE rem_handovers_total counter\n",
		"rem_handovers_total 1\n",
		"# TYPE rem_failures_total counter\n",
		`rem_failures_total{cause="missed-cell"} 1` + "\n",
		`rem_failures_total{cause="coverage-hole"} 0` + "\n",
		"# TYPE rem_blackout_seconds histogram\n",
		`rem_blackout_seconds_bucket{le="1"} 0` + "\n",
		`rem_blackout_seconds_bucket{le="2"} 1` + "\n",
		`rem_blackout_seconds_bucket{le="+Inf"} 1` + "\n",
		"rem_blackout_seconds_sum 1.6\n",
		"rem_blackout_seconds_count 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
	// One TYPE header per family, even with 4 labeled failure series.
	if got := strings.Count(text, "# TYPE rem_failures_total "); got != 1 {
		t.Fatalf("rem_failures_total TYPE header appears %d times", got)
	}
}

func TestShardSchemaMisuse(t *testing.T) {
	tel := New(Config{})
	sc := tel.Scope(0)
	for _, fn := range []func(){
		func() { sc.Shard.Counter("no_such_metric") },
		func() { sc.Shard.Counter(MBlackout) }, // histogram, not counter
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("schema misuse did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestDrainIntoReuseAndEquivalence checks the pooled-buffer drain path:
// DrainInto must produce the same merged stream as Drain, append after
// existing contents, recycle a caller buffer without reallocating, and
// keep the cached scope order correct when a scope appears mid-run.
func TestDrainIntoReuseAndEquivalence(t *testing.T) {
	fill := func(tel *Telemetry) {
		tel.Scope(2).Rec.Record(Event{T: 1, Kind: EvRLF})
		tel.Scope(0).Rec.Record(Event{T: 1, Kind: EvRLF})
		tel.Scope(1).Rec.Record(Event{T: 0.5, Kind: EvAttach})
	}
	a, b := New(Config{}), New(Config{})
	fill(a)
	fill(b)
	want := a.Drain()
	got := b.DrainInto(nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("DrainInto(nil) = %+v, want %+v", got, want)
	}

	// Appends after existing contents, leaving them untouched.
	c := New(Config{})
	fill(c)
	prefix := []Event{{UE: 99, T: -1, Kind: EvAttach}}
	out := c.DrainInto(prefix)
	if out[0].UE != 99 || !reflect.DeepEqual(out[1:], want) {
		t.Fatalf("DrainInto with prefix = %+v", out)
	}

	// Steady state: recycling the buffer does not grow it. (Seq values
	// advance each round — recorders never reset them — so compare
	// everything but Seq against the first-round stream.)
	fill(b)
	buf := make([]Event, 0, 16)
	buf = b.DrainInto(buf)
	p0 := &buf[:cap(buf)][0]
	fill(b)
	buf = b.DrainInto(buf[:0])
	if &buf[:cap(buf)][0] != p0 {
		t.Fatal("recycled buffer was reallocated")
	}
	if len(buf) != len(want) {
		t.Fatalf("recycled drain has %d events, want %d", len(buf), len(want))
	}
	for i := range buf {
		got, exp := buf[i], want[i]
		got.Seq, exp.Seq = 0, 0
		if got != exp {
			t.Fatalf("recycled drain event %d = %+v, want %+v", i, buf[i], want[i])
		}
	}

	// A scope created after drains must invalidate the cached order.
	fill(b)
	b.Scope(5).Rec.Record(Event{T: 0.1, Kind: EvAttach})
	out = b.DrainInto(nil)
	if len(out) != len(want)+1 || out[0].UE != 5 {
		t.Fatalf("drain after late scope = %+v", out)
	}

	// Recorder-level DrainInto: appends in record order, resets, and
	// keeps Seq dense across the reset.
	r := newRecorder(4, 8)
	r.Record(Event{T: 1})
	r.Record(Event{T: 2})
	rbuf := r.DrainInto(nil)
	if len(rbuf) != 2 || rbuf[0].Seq != 0 || rbuf[1].Seq != 1 {
		t.Fatalf("recorder DrainInto = %+v", rbuf)
	}
	if r.Len() != 0 {
		t.Fatal("DrainInto did not reset the ring")
	}
	r.Record(Event{T: 3})
	if out := r.DrainInto(rbuf[:0]); len(out) != 1 || out[0].Seq != 2 {
		t.Fatalf("post-reset recorder drain = %+v", out)
	}
}
