package online

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/learn"
)

// Lane builds the flywheel lane of workload w over its forest type F:
// records decode into w's examples, a fitted forest predicts candidate
// strings for shadow eval, and the caller supplies the install step (serve
// swap + cluster broadcast). boot may be nil (no model loaded at daemon
// start — the lane then promotes the first candidate that clears the
// margin over an always-abstaining live model, and a rollback to boot
// installs a nil forest, unloading the serving predictor). install makes a
// fitted forest the serving model and must accept nil as "unload".
func Lane[P any, L learn.Candidate, F learn.Model, H, In any](w *learn.Workload[P, L, F, H, In], boot F, tc learn.TrainConfig, install func(context.Context, F) error) LaneConfig {
	mk := func(name string, f F) Model {
		return Model{
			Name: name,
			Predict: func(r Record) (string, bool) {
				c, _, ok := w.Predict(f, w.Embed(r.F, r.FB))
				return c.String(), ok
			},
			Install: func(ctx context.Context) error { return install(ctx, f) },
		}
	}
	// With no boot forest the boot model abstains, and its Install puts
	// the daemon back where it started: no predictor loaded. Without
	// this, rolling back a first promotion would leave the rejected
	// candidate serving.
	var none F
	bootModel := Model{Name: "boot", Install: func(ctx context.Context) error { return install(ctx, none) }}
	if boot != none {
		bootModel = mk("boot", boot)
	}
	return LaneConfig{
		Kind: Kind(w.Kind),
		Boot: bootModel,
		Train: func(recs []Record, round int64) (Model, error) {
			exs := make([]core.Recorded[P, L], 0, len(recs))
			for _, r := range recs {
				c, err := w.Parse(r.Label)
				if err != nil {
					continue // store validation makes this unreachable
				}
				exs = append(exs, core.Recorded[P, L]{Point: w.Embed(r.F, r.FB), Candidate: c})
			}
			f, err := w.Train(exs, tc)
			if err != nil {
				return Model{}, err
			}
			return mk(fmt.Sprintf("%s-online-r%d", w.Name, round), f), nil
		},
	}
}

// SMSVLane is the single-matrix workload's Lane.
func SMSVLane(boot *learn.Forest, tc learn.TrainConfig, install func(context.Context, *learn.Forest) error) LaneConfig {
	return Lane(&learn.SMSV, boot, tc, install)
}

// PairLane is the SpGEMM workload's Lane.
func PairLane(boot *learn.PairForest, tc learn.TrainConfig, install func(context.Context, *learn.PairForest) error) LaneConfig {
	return Lane(&learn.SpGEMM, boot, tc, install)
}
