package core

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestChooseContextTraced verifies the span contract of a traced decision,
// for both workloads: a traced hybrid decision carries one candidate span per
// measured candidate, each with a build child and measurement attempts
// holding the warm-up and one rep span per timed sample — as many as the
// candidate span's samples attribute says, within the rounds' budget — one
// span for readying the winner in full, plus a history lookup span when a
// history is configured — all under one root span named after the workload.
func TestChooseContextTraced(t *testing.T) {
	b := buildRandom(t, 60, 40, 0.15, 1)
	smsv := New(Config{Policy: Hybrid, History: &History{}, TopK: 2})
	pa, pb := pairBuilders(7, 14, 12, 9, 0.25)
	pair := NewSpGEMM(SpGEMMConfig{Policy: Hybrid, History: &PairHistory{}, TopK: 2})

	for _, tc := range []struct {
		name, root string
		reps       int // timed samples per candidate, at most: trial inputs × repeats
		choose     func(ctx context.Context) (chosen string, measured int, err error)
	}{
		{"smsv", "schedule.choose", 3 * 2, func(ctx context.Context) (string, int, error) {
			d, err := smsv.ChooseContext(ctx, b)
			if err != nil {
				return "", 0, err
			}
			return d.ChosenCandidate.String(), len(d.Measured), nil
		}},
		{"spgemm", "schedule.spgemm", 1 * 2, func(ctx context.Context) (string, int, error) {
			d, err := pair.ChooseContext(ctx, pa, pb)
			if err != nil {
				return "", 0, err
			}
			return d.Chosen.String(), len(d.Measured), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, tr, root := telemetry.NewTrace(context.Background(), "test-schedule")
			chosen, measured, err := tc.choose(ctx)
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			tr.Finish()

			// Every span hangs off the parent the tree shape promises.
			parentOf := map[string]string{
				tc.root: "test-schedule", "history.lookup": tc.root, "candidate": tc.root,
				"candidate.build": "candidate", "measure.attempt": "candidate",
				"measure.warmup": "measure.attempt", "measure.rep": "measure.attempt",
				"winner.build": tc.root,
			}
			spans := tr.Snapshot().Spans
			count := map[string]int{}
			reps := map[int]int{} // measure.rep spans per candidate span
			for _, s := range spans {
				count[s.Name]++
				if s.Parent < 0 {
					continue
				}
				if s.Name == "measure.rep" {
					reps[spans[spans[s.Parent].Parent].ID]++
				}
				want, known := parentOf[s.Name]
				if got := spans[s.Parent].Name; !known || got != want {
					t.Errorf("span %q under %q, want under %q\n%s", s.Name, got, want, tr.Tree())
				}
			}
			for name, want := range map[string]int{
				tc.root: 1, "history.lookup": 1, "candidate": measured, "candidate.build": measured,
				"measure.attempt": measured, "measure.warmup": measured, "winner.build": 1,
			} {
				if count[name] != want || want == 0 {
					t.Errorf("%d %s spans, want %d\n%s", count[name], name, want, tr.Tree())
				}
			}
			for _, s := range spans {
				if s.Name != "candidate" {
					continue
				}
				samples := -1
				for _, a := range s.AttrList {
					if n, ok := strings.CutPrefix(a, "samples="); ok {
						samples, _ = strconv.Atoi(n)
					}
				}
				if samples < 1 || samples > tc.reps || reps[s.ID] != samples {
					t.Errorf("candidate span %d: samples=%d with %d measure.rep spans, want 1 to %d and equal\n%s", s.ID, samples, reps[s.ID], tc.reps, tr.Tree())
				}
			}
			if !strings.Contains(tr.Tree(), "chosen="+chosen) || !strings.Contains(tr.Tree(), "source=measured") {
				t.Fatalf("chosen candidate or source not annotated\n%s", tr.Tree())
			}

			// A second decision for the same shape reuses history: the trace
			// must show the hit and no candidates.
			ctx2, tr2, root2 := telemetry.NewTrace(context.Background(), "test-schedule-2")
			if _, _, err := tc.choose(ctx2); err != nil {
				t.Fatal(err)
			}
			root2.End()
			tr2.Finish()
			tree := tr2.Tree()
			if !strings.Contains(tree, "hit=true") || !strings.Contains(tree, "source=history") || strings.Contains(tree, "candidate ") {
				t.Fatalf("history reuse not reflected in trace:\n%s", tree)
			}
		})
	}
}

// TestChooseContextUntracedNoSpans: without a trace on the context the
// scheduler must not fabricate one (StartSpan no-ops).
func TestChooseContextUntracedNoSpans(t *testing.T) {
	b := buildRandom(t, 40, 30, 0.15, 2)
	sched := New(Config{Policy: Hybrid})
	if _, err := sched.ChooseContext(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if tr := telemetry.ContextTrace(context.Background()); tr != nil {
		t.Fatal("trace appeared on a bare context")
	}
}
