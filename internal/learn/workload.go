package learn

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// Candidate is a workload's label as callers of a Workload see it: a
// comparable value with the string form model files, histories and
// harvested records persist.
type Candidate interface {
	comparable
	String() string
}

// Model is what callers do with a trained forest of any workload: report
// its size and persist it. *Forest and *PairForest implement it; each adds
// its own predict method, whose arity is the workload's.
type Model interface {
	comparable
	Trees() int
	TrainedOn() int
	Save(io.Writer) error
	SaveFile(path string) error
}

// Workload describes one scheduled workload once, for every caller above
// the scheduler ladder: the layoutsched train and eval flows, the daemon's
// flags and persisted state, and the online flywheel's lane all take their
// per-workload facts from it (DESIGN §16). P is the workload's embedded
// point, L its candidate, F its forest, H its tuning history and In one
// corpus item. SMSV and SpGEMM are the two values.
type Workload[P any, L Candidate, F Model, H any, In any] struct {
	// Kind discriminates the workload's harvested records and pushed
	// models; Name prefixes its online model names.
	Kind, Name string
	// FlagPrefix prefixes the daemon's per-workload flags and the default
	// model file; CmdSuffix suffixes the layoutsched train and eval
	// subcommands.
	FlagPrefix, CmdSuffix string
	// The nouns of help text, reports and logs: Pair qualifies the
	// workload's own ("pair model"), Tag names the workload where a bare
	// noun would not, Items is what a corpus holds, Predictor names a
	// trained model, and Serves says what the daemon answers with it.
	Pair, Tag, Items, Predictor, Serves string

	// LoadHistory reads a tuning-history file (core.LoadHistory), and
	// Harvest returns what a history recorded as training examples.
	LoadHistory func(path string) (H, error)
	Harvest     func(H) []core.Recorded[P, L]
	// Train fits a forest; LoadModel reads one its Save wrote.
	Train     func([]core.Recorded[P, L], TrainConfig) (F, error)
	LoadModel func(io.Reader) (F, error)
	// Synthetic generates n corpus items from seed; Single makes one
	// matrix a corpus item, and is nil when an item is not one matrix.
	Synthetic func(n int, seed int64) []In
	Single    func(*sparse.Builder) In
	// Measure labels one corpus item by empirical measurement.
	Measure func(ctx context.Context, in In, ex *exec.Exec, seed int64) (Measured[P, L], error)
	// Embed maps the Table IV parameters of the operands to a point (b is
	// zero for a one-matrix workload), Parse reads a candidate's string
	// form, and Predict votes a forest on a point.
	Embed   func(a, b dataset.Features) P
	Parse   func(string) (L, error)
	Predict func(F, P) (L, float64, bool)
}

// The workload kinds, persisted in harvest-store records and carried by
// model pushes; a pair model file carries its kind too.
const (
	kindSMSV = "smsv"
	kindPair = "spgemm-pair"
)

// SMSV is the single-matrix workload: a storage format, chunk policy and
// kernel variant for one dataset's SMSV kernels.
var SMSV = Workload[[dataset.EmbedDims]float64, sparse.Candidate, *Forest, *core.History, *sparse.Builder]{
	Kind: kindSMSV, Name: kindSMSV,
	Items: "datasets", Predictor: "format predictor",
	Serves:      "served by /v1/predict-format and the predict policy",
	LoadHistory: core.LoadHistory[core.History],
	Harvest:     (*core.History).Snapshot,
	Train:       Train,
	LoadModel:   Load,
	Synthetic:   syntheticCorpus,
	Single:      func(b *sparse.Builder) *sparse.Builder { return b },
	Measure:     Measure,
	Embed:       func(a, _ dataset.Features) [dataset.EmbedDims]float64 { return dataset.Embed(a) },
	Parse:       sparse.ParseCandidate,
	Predict: func(f *Forest, p [dataset.EmbedDims]float64) (sparse.Candidate, float64, bool) {
		return f.generic().vote(p[:])
	},
}

// SpGEMM is the sparse-product workload: a dataflow and an operand format
// pair for one A×B.
var SpGEMM = Workload[[dataset.PairEmbedDims]float64, spgemm.Candidate, *PairForest, *core.PairHistory, [2]*sparse.Builder]{
	Kind: kindPair, Name: "spgemm", FlagPrefix: "spgemm-", CmdSuffix: "-spgemm",
	Pair: "pair ", Tag: "SpGEMM ", Items: "operand pairs", Predictor: "pair predictor",
	Serves:      "serving the predict policy on /v1/schedule/spgemm",
	LoadHistory: core.LoadHistory[core.PairHistory],
	Harvest:     (*core.PairHistory).Snapshot,
	Train:       TrainPair,
	LoadModel:   LoadPair,
	Synthetic:   syntheticPairCorpus,
	Measure:     measurePair,
	Embed:       dataset.EmbedPair,
	Parse:       spgemm.ParseCandidate,
	Predict: func(f *PairForest, p [dataset.PairEmbedDims]float64) (spgemm.Candidate, float64, bool) {
		return f.generic().vote(p[:])
	},
}

// LoadModelFile opens and loads a model file, naming the path in any
// error. Every workload shares the "model.load" fault site so chaos specs
// cover them all.
func (w *Workload[P, L, F, H, In]) LoadModelFile(path string) (F, error) {
	var none F
	if err := fault.Inject("model.load"); err != nil {
		return none, fmt.Errorf("%s: %w", path, err)
	}
	r, err := os.Open(path)
	if err != nil {
		return none, err
	}
	defer r.Close()
	f, err := w.LoadModel(r)
	if err != nil {
		return none, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// MeasureAll measure-labels a corpus, item i under seed+i.
func (w *Workload[P, L, F, H, In]) MeasureAll(ctx context.Context, corpus []In, ex *exec.Exec, seed int64) ([]Measured[P, L], error) {
	out := make([]Measured[P, L], 0, len(corpus))
	for i, in := range corpus {
		m, err := w.Measure(ctx, in, ex, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("learn: labeling corpus item %d: %w", i, err)
		}
		out = append(out, m)
	}
	return out, nil
}
