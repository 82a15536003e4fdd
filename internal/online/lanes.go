package online

import (
	"context"
	"fmt"

	"repro/internal/learn"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// Turnkey lane constructors: each wraps one of learn's forests as a
// flywheel lane — records decode into the forest's example type, the
// fitted forest predicts candidate strings for shadow eval, and the
// caller supplies the install step (serve swap + cluster broadcast).

// forestLane builds a lane over forest type F. boot may be nil (no model
// loaded at daemon start — the lane then promotes the first candidate that
// clears the margin over an always-abstaining live model, and a rollback
// to boot installs a nil forest, unloading the serving predictor). install
// makes a fitted forest the serving model and must accept nil as "unload".
// predict and train are the two places the forest type shows: one shadow
// prediction as a candidate string, and one fit over harvested records.
func forestLane[F any](kind Kind, namePrefix string, boot *F,
	predict func(*F, Record) (string, bool),
	train func([]Record) (*F, error),
	install func(context.Context, *F) error) LaneConfig {
	mk := func(name string, f *F) Model {
		return Model{
			Name:    name,
			Predict: func(r Record) (string, bool) { return predict(f, r) },
			Install: func(ctx context.Context) error { return install(ctx, f) },
		}
	}
	// With no boot forest the boot model abstains, and its Install puts
	// the daemon back where it started: no predictor loaded. Without
	// this, rolling back a first promotion would leave the rejected
	// candidate serving.
	bootModel := Model{Name: "boot", Install: func(ctx context.Context) error { return install(ctx, nil) }}
	if boot != nil {
		bootModel = mk("boot", boot)
	}
	return LaneConfig{
		Kind: kind,
		Boot: bootModel,
		Train: func(recs []Record, round int64) (Model, error) {
			f, err := train(recs)
			if err != nil {
				return Model{}, err
			}
			return mk(fmt.Sprintf("%s-online-r%d", namePrefix, round), f), nil
		},
	}
}

// SMSVLane builds the single-matrix lane over learn.Forest; see forestLane
// for the nil-boot and install(nil) contracts.
func SMSVLane(boot *learn.Forest, tc learn.TrainConfig, install func(context.Context, *learn.Forest) error) LaneConfig {
	return forestLane(KindSMSV, "smsv", boot,
		func(f *learn.Forest, r Record) (string, bool) {
			c, _, ok := f.PredictCandidate(r.F)
			return c.String(), ok
		},
		func(recs []Record) (*learn.Forest, error) {
			exs := make([]learn.Example, 0, len(recs))
			for _, r := range recs {
				c, err := sparse.ParseCandidate(r.Label)
				if err != nil {
					continue // store validation makes this unreachable
				}
				exs = append(exs, learn.FromFeatures(r.F, c))
			}
			return learn.Train(exs, tc)
		}, install)
}

// PairLane builds the SpGEMM lane over learn.PairForest; see forestLane
// for the nil-boot and install(nil) contracts.
func PairLane(boot *learn.PairForest, tc learn.TrainConfig, install func(context.Context, *learn.PairForest) error) LaneConfig {
	return forestLane(KindPair, "spgemm", boot,
		func(f *learn.PairForest, r Record) (string, bool) {
			c, _, ok := f.PredictPair(r.F, r.FB)
			return c.String(), ok
		},
		func(recs []Record) (*learn.PairForest, error) {
			exs := make([]learn.PairExample, 0, len(recs))
			for _, r := range recs {
				c, err := spgemm.ParseCandidate(r.Label)
				if err != nil {
					continue // store validation makes this unreachable
				}
				exs = append(exs, learn.FromPairFeatures(r.F, r.FB, c))
			}
			return learn.TrainPair(exs, tc)
		}, install)
}
