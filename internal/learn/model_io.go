package learn

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
)

// ModelVersion is the SMSV serialization format version. Bump it whenever
// the embedding (dataset.Embed), the node layout, or the vote semantics
// change, so stale models are rejected at load time instead of silently
// predicting in the wrong feature space. Version 2 widened leaf labels from
// bare format names to joint candidate strings ("CSR/guided/fused");
// version 1 models predict in a different label space and must be
// retrained.
const ModelVersion = 2

// ErrModelVersion is wrapped into Load's error when the file was written
// by a different, incompatible model version.
var ErrModelVersion = errors.New("learn: model version mismatch")

// modelFile is what distinguishes one workload's model file from
// another's: the version it writes and accepts, the kind discriminator
// (empty = the file carries none, the SMSV form), and the nouns its error
// text uses.
type modelFile struct {
	version int
	kind    string
	noun    string // "model" / "pair model"
	tree    string // "tree" / "pair tree"
	retrain string // the command that produces a fresh model
}

// modelJSON is the on-disk form of a forest.
type modelJSON struct {
	Version int        `json:"version"`
	Kind    string     `json:"kind,omitempty"`
	Dims    int        `json:"dims"`
	Trained int        `json:"trained_examples"`
	Trees   []treeJSON `json:"trees"`
}

type treeJSON struct {
	Nodes []nodeJSON `json:"nodes"`
}

// nodeJSON flattens one tree node. Internal nodes carry feat/thresh and
// child indices; leaves carry feat=-1 with label/purity.
type nodeJSON struct {
	Feat   int     `json:"feat"`
	Thresh float64 `json:"thresh,omitempty"`
	Left   int     `json:"left,omitempty"`
	Right  int     `json:"right,omitempty"`
	Label  string  `json:"label,omitempty"`
	Purity float64 `json:"purity,omitempty"`
}

// save writes the forest as versioned JSON.
func (f *forest[L]) save(sp *space[L], w io.Writer) error {
	m := modelJSON{Version: sp.file.version, Kind: sp.file.kind, Dims: sp.dims, Trained: f.trained}
	for _, t := range f.trees {
		tj := treeJSON{Nodes: make([]nodeJSON, len(t.nodes))}
		for i, n := range t.nodes {
			if n.feat < 0 {
				tj.Nodes[i] = nodeJSON{Feat: -1, Label: n.label.String(), Purity: n.purity}
			} else {
				tj.Nodes[i] = nodeJSON{Feat: n.feat, Thresh: n.thresh, Left: n.left, Right: n.right}
			}
		}
		m.Trees = append(m.Trees, tj)
	}
	return json.NewEncoder(w).Encode(m)
}

// load reads a forest written by save, validating the kind, the version,
// the embedding dimensionality, and every node's structure. A corrupt,
// truncated, or mismatched file is a clean error, so daemons fail at
// startup rather than mid-request.
func (f *forest[L]) load(sp *space[L], r io.Reader) error {
	mf := sp.file
	var m modelJSON
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return fmt.Errorf("learn: corrupt %s file: %w", mf.noun, err)
	}
	if mf.kind != "" && m.Kind != mf.kind {
		return fmt.Errorf("learn: model kind %q, want %q (this is not a SpGEMM %s)", m.Kind, mf.kind, mf.noun)
	}
	if m.Version != mf.version {
		return fmt.Errorf("%w: %s file has version %d, this build reads %d (retrain with `%s`)",
			ErrModelVersion, mf.noun, m.Version, mf.version, mf.retrain)
	}
	if m.Dims != sp.dims {
		return fmt.Errorf("learn: %s embeds %d dimensions, this build embeds %d", mf.noun, m.Dims, sp.dims)
	}
	if len(m.Trees) == 0 {
		return fmt.Errorf("learn: %s holds no trees", mf.noun)
	}
	f.trained = m.Trained
	for ti, tj := range m.Trees {
		if len(tj.Nodes) == 0 {
			return fmt.Errorf("learn: %s %d is empty", mf.tree, ti)
		}
		t := &tree[L]{nodes: make([]node[L], len(tj.Nodes))}
		for i, nj := range tj.Nodes {
			if nj.Feat < 0 {
				label, err := sp.parse(nj.Label)
				if err != nil {
					return fmt.Errorf("learn: %s %d node %d: %v", mf.tree, ti, i, err)
				}
				if nj.Purity < 0 || nj.Purity > 1 {
					return fmt.Errorf("learn: %s %d node %d: purity %g outside [0,1]", mf.tree, ti, i, nj.Purity)
				}
				t.nodes[i] = node[L]{feat: -1, label: label, index: label.Index(), purity: nj.Purity}
				continue
			}
			if nj.Feat >= sp.dims {
				return fmt.Errorf("learn: %s %d node %d: feature %d out of range", mf.tree, ti, i, nj.Feat)
			}
			// Children must point forward (the builder appends parents
			// first); this also rules out cycles in hand-edited files.
			if nj.Left <= i || nj.Right <= i || nj.Left >= len(tj.Nodes) || nj.Right >= len(tj.Nodes) {
				return fmt.Errorf("learn: %s %d node %d: child indices %d/%d invalid", mf.tree, ti, i, nj.Left, nj.Right)
			}
			t.nodes[i] = node[L]{feat: nj.Feat, thresh: nj.Thresh, left: nj.Left, right: nj.Right}
		}
		f.trees = append(f.trees, t)
	}
	return nil
}

// loadFile opens path and loads it into f, naming the path in any error.
// Every model kind shares the "model.load" fault site so chaos specs cover
// them all.
func (f *forest[L]) loadFile(sp *space[L], path string) error {
	if err := fault.Inject("model.load"); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	r, err := os.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	if err := f.load(sp, r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// saveFile writes the forest to path atomically.
func (f *forest[L]) saveFile(sp *space[L], path string) error {
	return core.WriteFileAtomic(path, func(w io.Writer) error { return f.save(sp, w) })
}

// Save writes the forest as versioned JSON.
func (f *Forest) Save(w io.Writer) error { return f.save(&smsvSpace, w) }

// SaveFile writes the forest to path.
func (f *Forest) SaveFile(path string) error { return f.saveFile(&smsvSpace, path) }

// Load reads a forest saved by Save; see the generic load for what is
// validated.
func Load(r io.Reader) (*Forest, error) {
	f := &Forest{}
	if err := f.load(&smsvSpace, r); err != nil {
		return nil, err
	}
	return f, nil
}

// LoadFile opens and loads a model file, naming the path in any error.
func LoadFile(path string) (*Forest, error) {
	f := &Forest{}
	if err := f.loadFile(&smsvSpace, path); err != nil {
		return nil, err
	}
	return f, nil
}

// Save writes the pair forest as versioned JSON, in the flattened node
// wire form of the SMSV model (labels are spgemm candidate strings).
func (f *PairForest) Save(w io.Writer) error { return f.save(&pairSpace, w) }

// SaveFile writes the pair forest to path.
func (f *PairForest) SaveFile(path string) error { return f.saveFile(&pairSpace, path) }

// LoadPair reads a pair forest saved by Save with the structural validation
// Load applies, plus the kind check.
func LoadPair(r io.Reader) (*PairForest, error) {
	f := &PairForest{}
	if err := f.load(&pairSpace, r); err != nil {
		return nil, err
	}
	return f, nil
}

// LoadPairFile opens and loads a pair model file, naming the path in any
// error.
func LoadPairFile(path string) (*PairForest, error) {
	f := &PairForest{}
	if err := f.loadFile(&pairSpace, path); err != nil {
		return nil, err
	}
	return f, nil
}
