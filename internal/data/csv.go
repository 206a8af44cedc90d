package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"pipedream/internal/tensor"
)

// CSVDataset is a classification dataset loaded from numeric CSV rows:
// every row is feature values followed by an integer class label in the
// last column. Rows are grouped into fixed-size minibatches in file
// order; a trailing partial batch is dropped (pipeline replicas need
// uniform batch shapes).
type CSVDataset struct {
	set
	classes int
}

// ReadCSV parses a CSV stream into a dataset with the given batch size.
func ReadCSV(r io.Reader, name string, batchSize int) (*CSVDataset, error) {
	if batchSize < 1 {
		return nil, fmt.Errorf("data: batch size %d", batchSize)
	}
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("data: csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("data: csv %q is empty", name)
	}
	dim := len(rows[0]) - 1
	if dim < 1 {
		return nil, fmt.Errorf("data: csv rows need ≥1 feature plus a label, got %d columns", len(rows[0]))
	}
	ds := &CSVDataset{set: set{name: name}}
	var feats []float32
	var labels []int
	for i, row := range rows {
		if len(row) != dim+1 {
			return nil, fmt.Errorf("data: csv row %d has %d columns, want %d", i+1, len(row), dim+1)
		}
		for j := 0; j < dim; j++ {
			v, err := strconv.ParseFloat(row[j], 32)
			if err != nil {
				return nil, fmt.Errorf("data: csv row %d col %d: %w", i+1, j+1, err)
			}
			feats = append(feats, float32(v))
		}
		label, err := strconv.Atoi(row[dim])
		if err != nil {
			return nil, fmt.Errorf("data: csv row %d label: %w", i+1, err)
		}
		if label < 0 {
			return nil, fmt.Errorf("data: csv row %d: negative label %d", i+1, label)
		}
		if label+1 > ds.classes {
			ds.classes = label + 1
		}
		labels = append(labels, label)
	}
	for off := 0; off+batchSize <= len(labels); off += batchSize {
		x := tensor.New(batchSize, dim)
		copy(x.Data, feats[off*dim:(off+batchSize)*dim])
		lb := make([]int, batchSize)
		copy(lb, labels[off:off+batchSize])
		ds.batches = append(ds.batches, Batch{X: x, Labels: lb})
	}
	if len(ds.batches) == 0 {
		return nil, fmt.Errorf("data: csv %q has %d rows, fewer than one %d-row batch", name, len(labels), batchSize)
	}
	return ds, nil
}

// Classes returns the number of distinct labels (max label + 1).
func (c *CSVDataset) Classes() int { return c.classes }
