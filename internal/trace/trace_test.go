package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilQueryTraceSafe checks every method is a no-op on a nil trace, the
// property the instrumented hot paths rely on.
func TestNilQueryTraceSafe(t *testing.T) {
	var qt *QueryTrace
	qt.Observe(StagePush, time.Now(), time.Millisecond) // must not panic
	if !qt.Begin().IsZero() {
		t.Fatal("nil Begin() not zero")
	}
	Put(nil) // must not panic
}

// TestObserveAndFinish drives a full trace through Observe/Finish and checks
// the frozen record: pipeline-ordered stages, exact offsets and durations,
// metadata copied through.
func TestObserveAndFinish(t *testing.T) {
	begin := time.Unix(1000, 0)
	qt := Get(begin)
	defer Put(qt)
	qt.Seed = 42
	qt.Method = "tea+"
	qt.CacheOutcome = OutcomeMiss
	qt.Parallelism = 4

	// Observe out of pipeline order on purpose; the record must still come
	// out ordered.
	qt.Observe(StageWalk, begin.Add(3*time.Millisecond), 5*time.Millisecond)
	qt.Observe(StagePush, begin.Add(1*time.Millisecond), 2*time.Millisecond)
	qt.Observe(StageQueueWait, begin, time.Millisecond)

	rec := qt.Finish(begin.Add(10*time.Millisecond), "")
	if rec.Seed != 42 || rec.Method != "tea+" || rec.CacheOutcome != OutcomeMiss || rec.Parallelism != 4 {
		t.Fatalf("metadata lost: %+v", rec)
	}
	if rec.TotalNS != (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("TotalNS = %d", rec.TotalNS)
	}
	wantOrder := []string{"queue_wait", "push", "walk"}
	if len(rec.Stages) != len(wantOrder) {
		t.Fatalf("got %d stages, want %d: %v", len(rec.Stages), len(wantOrder), rec.Stages)
	}
	for i, name := range wantOrder {
		if rec.Stages[i].Stage != name {
			t.Fatalf("stage %d = %q, want %q", i, rec.Stages[i].Stage, name)
		}
	}
	if d, ok := rec.StageDuration("push"); !ok || d != 2*time.Millisecond {
		t.Fatalf("push duration %v ok=%v", d, ok)
	}
	if rec.Stages[1].StartNS != time.Millisecond.Nanoseconds() {
		t.Fatalf("push offset %d, want %d", rec.Stages[1].StartNS, time.Millisecond.Nanoseconds())
	}
	if _, ok := rec.StageDuration("sweep"); ok {
		t.Fatal("unobserved stage reported")
	}
}

// TestObserveOverwrites checks re-observing a stage replaces its span.
func TestObserveOverwrites(t *testing.T) {
	begin := time.Unix(0, 0)
	qt := Get(begin)
	defer Put(qt)
	qt.Observe(StageRender, begin, time.Millisecond)
	qt.Observe(StageRender, begin.Add(time.Millisecond), 2*time.Millisecond)
	rec := qt.Finish(begin.Add(time.Second), "")
	if len(rec.Stages) != 1 {
		t.Fatalf("%d stages, want 1", len(rec.Stages))
	}
	if d, _ := rec.StageDuration("render"); d != 2*time.Millisecond {
		t.Fatalf("duration %v after overwrite", d)
	}
}

// TestPoolReset checks a recycled trace carries nothing over from its
// previous use.
func TestPoolReset(t *testing.T) {
	begin := time.Unix(2000, 0)
	qt := Get(begin)
	qt.Seed = 7
	qt.Method = "tea"
	qt.Observe(StagePush, begin, time.Millisecond)
	Put(qt)

	qt2 := Get(time.Unix(3000, 0))
	defer Put(qt2)
	rec := qt2.Finish(time.Unix(3001, 0), "")
	if rec.Seed != 0 || rec.Method != "" || len(rec.Stages) != 0 {
		t.Fatalf("pooled trace not reset: %+v", rec)
	}
	if !qt2.Begin().Equal(time.Unix(3000, 0)) {
		t.Fatalf("Begin = %v", qt2.Begin())
	}
}

// TestWithStage checks the copy-on-extend derivation leaves the original
// record untouched (it may be shared by the ring and coalesced callers).
func TestWithStage(t *testing.T) {
	begin := time.Unix(0, 0)
	qt := Get(begin)
	qt.Observe(StagePush, begin, time.Millisecond)
	rec := qt.Finish(begin.Add(time.Second), "")
	Put(qt)

	ext := rec.WithStage(StageRender, begin.Add(2*time.Millisecond), 3*time.Millisecond)
	if len(rec.Stages) != 1 {
		t.Fatalf("original mutated: %v", rec.Stages)
	}
	if len(ext.Stages) != 2 || ext.Stages[1].Stage != "render" {
		t.Fatalf("extension wrong: %v", ext.Stages)
	}
	if ext.Stages[1].StartNS != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("render offset %d", ext.Stages[1].StartNS)
	}
	// Appending to the extension must not write into the original's backing
	// array either.
	_ = ext.WithStage(StageSweep, begin, time.Millisecond)
	if rec.Stages[0].Stage != "push" {
		t.Fatal("original backing array clobbered")
	}
}

// TestRecordJSONAndSummary checks the wire shape of a record and the
// slow-query log line.
func TestRecordJSONAndSummary(t *testing.T) {
	begin := time.Unix(0, 0)
	qt := Get(begin)
	defer Put(qt)
	qt.Seed = 9
	qt.Observe(StagePush, begin, 1200*time.Microsecond)
	qt.Observe(StageWalk, begin.Add(1200*time.Microsecond), 3400*time.Microsecond)
	rec := qt.Finish(begin.Add(5*time.Millisecond), "boom")

	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Seed   int64  `json:"seed"`
		Error  string `json:"error"`
		Stages []struct {
			Stage      string `json:"stage"`
			DurationNS int64  `json:"duration_ns"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Seed != 9 || decoded.Error != "boom" || len(decoded.Stages) != 2 {
		t.Fatalf("decoded %+v", decoded)
	}
	if decoded.Stages[0].DurationNS != (1200 * time.Microsecond).Nanoseconds() {
		t.Fatalf("push ns %d", decoded.Stages[0].DurationNS)
	}

	sum := rec.StageSummary()
	if !strings.Contains(sum, "push=1.2ms") || !strings.Contains(sum, "walk=3.4ms") {
		t.Fatalf("summary %q", sum)
	}
}

// TestStageString pins the label names shared with the metrics surface.
func TestStageString(t *testing.T) {
	want := []string{"queue_wait", "cache_lookup", "workspace", "push", "walk", "merge", "sweep", "render", "update_apply", "cache_invalidate", "plan", "audit"}
	if int(NumStages) != len(want) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, name := range want {
		if Stage(i).String() != name {
			t.Fatalf("stage %d = %q, want %q", i, Stage(i), name)
		}
	}
	if s := NumStages.String(); !strings.Contains(s, "stage(") {
		t.Fatalf("out-of-range String() = %q", s)
	}
}
