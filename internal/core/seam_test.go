package core

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// A toy workload (two features in the first two coordinates, three labels)
// drives the radius store and its codec without naming a production
// candidate type: the generic code cannot be branching on its caller.
type toyPoint [dataset.EmbedDims]float64
type toyLabel int

func (l toyLabel) String() string { return strconv.Itoa(int(l)) }

func parseToy(s string) (toyLabel, error) { i, err := strconv.Atoi(s); return toyLabel(i), err }

func TestSeamRadiusStoreToyWorkload(t *testing.T) {
	codec := historyCodec[toyLabel]{header: "#toy-history v1", noun: "toy history", parse: parseToy}
	var h, loaded radiusStore[toyPoint, toyLabel]
	h.record(toyPoint{0, 0}, 0)
	h.record(toyPoint{3, 4}, 2)
	var buf bytes.Buffer
	if err := h.save(&buf, codec); err != nil {
		t.Fatal(err)
	}
	if err := loaded.load(bytes.NewReader(buf.Bytes()), codec); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*radiusStore[toyPoint, toyLabel]{&h, &loaded} {
		c, near := st.lookup(toyPoint{3, 4.2}, 0.5)
		if _, far := st.lookup(toyPoint{10, 10}, 0.5); !near || c != 2 || far || st.Len() != 2 {
			t.Fatalf("lookup: near %v→%v, far %v, len %d", near, c, far, st.Len())
		}
	}
	body := strings.TrimPrefix(buf.String(), codec.header+"\n")
	if new(radiusStore[toyPoint, toyLabel]).load(strings.NewReader(body), codec) == nil {
		t.Fatal("headerless file loaded although the codec does not allow it")
	}
}
