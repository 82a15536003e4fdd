package learn

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
)

// ErrModelVersion is wrapped into Load's error when the file was written
// by a different, incompatible model version.
var ErrModelVersion = errors.New("learn: model version mismatch")

// modelFile is what distinguishes one workload's model file from
// another's: the version it writes and accepts, the kind discriminator it
// writes and requires (empty = the file carries none, the SMSV form), and
// the nouns its error text uses.
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

// Save writes the forest as versioned JSON, in its workload's model-file
// form.
func (f *forest[L]) Save(w io.Writer) error {
	if f.sp == nil {
		return errors.New("learn: saving an untrained forest")
	}
	m := modelJSON{Version: f.sp.file.version, Kind: f.sp.file.kind, Dims: f.sp.dims, Trained: f.trained}
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

// SaveFile writes the forest to path atomically.
func (f *forest[L]) SaveFile(path string) error { return core.WriteFileAtomic(path, f.Save) }

// load reads a forest of sp's space written by Save, validating the kind,
// the version, the embedding dimensionality, and every node's structure. A
// corrupt, truncated, or mismatched file is a clean error, so daemons fail
// at startup rather than mid-request.
func (f *forest[L]) load(sp *space[L], r io.Reader) error {
	mf := sp.file
	var m modelJSON
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return fmt.Errorf("learn: corrupt %s file: %w", mf.noun, err)
	}
	if m.Kind != mf.kind {
		return fmt.Errorf("learn: model kind %q, want %q (this is not a %s file)", m.Kind, mf.kind, mf.noun)
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
	f.sp, f.trained = sp, m.Trained
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

// Load reads an SMSV forest saved by Save; see the generic load for what is
// validated.
func Load(r io.Reader) (*Forest, error) {
	f := &Forest{}
	if err := f.load(&smsvSpace, r); err != nil {
		return nil, err
	}
	return f, nil
}

// LoadPair reads a pair forest saved by Save, with the same validation.
func LoadPair(r io.Reader) (*PairForest, error) {
	f := &PairForest{}
	if err := f.load(&pairSpace, r); err != nil {
		return nil, err
	}
	return f, nil
}
