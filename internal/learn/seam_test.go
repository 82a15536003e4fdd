package learn

import (
	"bytes"
	"strconv"
	"testing"
)

// A toy workload (2-dimensional points, three labels) drives the tree, the
// forest and the model codec without naming a production candidate type.
type toyLabel int

func (l toyLabel) Index() int     { return int(l) }
func (l toyLabel) String() string { return strconv.Itoa(int(l)) }

var toySpace = space[toyLabel]{
	dims: 2, labels: 3,
	at:    func(i int) toyLabel { return toyLabel(i) },
	parse: func(s string) (toyLabel, error) { i, err := strconv.Atoi(s); return toyLabel(i), err },
	file:  modelFile{version: 1, kind: "toy", noun: "toy model", tree: "toy tree", retrain: "go test"},
}

func TestSeamForestToyWorkload(t *testing.T) {
	var rows [][]float64
	var labels []toyLabel
	for i := 0; i < 60; i++ { // the label is which third of the x axis
		x := float64(i%30) / 10
		rows, labels = append(rows, []float64{x, float64(i % 7)}), append(labels, toyLabel(int(x)))
	}
	var f, loaded forest[toyLabel]
	if err := f.train(&toySpace, rows, labels, TrainConfig{Trees: 5, Mtry: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := loaded.load(&toySpace, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		want, wconf, _ := f.vote(row)
		got, gconf, ok := loaded.vote(row)
		if !ok || want != labels[i] || got != want || gconf != wconf {
			t.Fatalf("row %v: trained %v/%g, loaded %v/%g, label %v", row, want, wconf, got, gconf, labels[i])
		}
	}
	if _, err := LoadPair(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal(`the pair loader accepted a model of kind "toy"`)
	}
}
