// Package data generates the synthetic datasets that stand in for
// ImageNet, WMT16, Penn Treebank, and MSVD in this reproduction: labelled
// Gaussian blobs and spirals for classification, random images for
// throughput runs, a sequence-copy task for translation models, and
// Markov-chain text for language modelling. All generators are
// deterministic given a seed.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"pipedream/internal/tensor"
)

// Batch is one minibatch of training data. Labels are class indices; for
// sequence tasks they are flattened time-major per sample ([B*T]).
type Batch struct {
	X      *tensor.Tensor
	Labels []int
}

// Dataset provides minibatches by index so that every training strategy
// (sequential, data parallel, pipelined) sees exactly the same data order
// and statistical-efficiency comparisons are apples-to-apples.
type Dataset interface {
	// Name identifies the dataset in experiment output.
	Name() string
	// NumBatches returns the number of minibatches per epoch.
	NumBatches() int
	// Batch returns minibatch i (deterministic per index).
	Batch(i int) Batch
}

// set is a named list of pregenerated minibatches, the Dataset behind
// every generator in this package; Batch wraps around.
type set struct {
	name    string
	batches []Batch
}

// Name implements Dataset.
func (s *set) Name() string { return s.name }

// NumBatches implements Dataset.
func (s *set) NumBatches() int { return len(s.batches) }

// Batch implements Dataset.
func (s *set) Batch(i int) Batch { return s.batches[i%len(s.batches)] }

// Blobs is a Gaussian-blob classification dataset: K well-separated class
// centers in D dimensions with unit-variance noise.
type Blobs struct{ set }

// NewBlobs generates a blob dataset with the given classes, input
// dimension, batch size, and number of batches.
func NewBlobs(seed int64, classes, dim, batchSize, numBatches int) *Blobs {
	if classes < 2 || dim < 1 {
		panic(fmt.Sprintf("data: blobs need ≥2 classes and ≥1 dim, got %d/%d", classes, dim))
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = rng.NormFloat64() * 4
		}
	}
	b := &Blobs{set{name: fmt.Sprintf("blobs(k=%d,d=%d)", classes, dim)}}
	for i := 0; i < numBatches; i++ {
		x := tensor.New(batchSize, dim)
		labels := make([]int, batchSize)
		for n := 0; n < batchSize; n++ {
			c := rng.Intn(classes)
			labels[n] = c
			for d := 0; d < dim; d++ {
				x.Data[n*dim+d] = float32(centers[c][d] + rng.NormFloat64())
			}
		}
		b.batches = append(b.batches, Batch{X: x, Labels: labels})
	}
	return b
}

// NewBlobsPair generates a train and a held-out eval dataset that share
// the same class centers (drawn once from seed) but contain disjoint
// samples — use this instead of two seeds, which would define two
// different classification problems.
func NewBlobsPair(seed int64, classes, dim, batchSize, trainBatches, evalBatches int) (*Blobs, *Blobs) {
	all := NewBlobs(seed, classes, dim, batchSize, trainBatches+evalBatches)
	train := &Blobs{set{all.name + "/train", all.batches[:trainBatches]}}
	eval := &Blobs{set{all.name + "/eval", all.batches[trainBatches:]}}
	return train, eval
}

// Spiral is the classic two-arm spiral: not linearly separable, so it
// genuinely requires hidden layers and exposes convergence differences
// between staleness regimes.
type Spiral struct{ set }

// NewSpiral generates a spiral dataset with the given arms.
func NewSpiral(seed int64, arms, batchSize, numBatches int) *Spiral {
	rng := rand.New(rand.NewSource(seed))
	s := &Spiral{set{name: fmt.Sprintf("spiral(arms=%d)", arms)}}
	for i := 0; i < numBatches; i++ {
		x := tensor.New(batchSize, 2)
		labels := make([]int, batchSize)
		for n := 0; n < batchSize; n++ {
			c := rng.Intn(arms)
			labels[n] = c
			r := rng.Float64() * 3
			theta := r*2 + float64(c)*2*math.Pi/float64(arms) + rng.NormFloat64()*0.15
			x.Data[n*2] = float32(r * math.Cos(theta))
			x.Data[n*2+1] = float32(r * math.Sin(theta))
		}
		s.batches = append(s.batches, Batch{X: x, Labels: labels})
	}
	return s
}

// Images generates small synthetic image-classification batches
// [B, C, H, W]: each class has a characteristic frequency pattern plus
// noise, so small CNNs can learn it quickly.
type Images struct{ set }

// NewImages generates an image dataset.
func NewImages(seed int64, classes, channels, size, batchSize, numBatches int) *Images {
	rng := rand.New(rand.NewSource(seed))
	im := &Images{set{name: fmt.Sprintf("images(k=%d,%dx%dx%d)", classes, channels, size, size)}}
	plane := size * size
	pattern := make([]float64, classes*plane) // class c: sin(f·y)·cos(f·x), f = (c+1)π/size
	for p := range pattern {
		freq := float64(p/plane+1) * math.Pi / float64(size)
		pattern[p] = math.Sin(freq*float64(p%plane/size)) * math.Cos(freq*float64(p%size))
	}
	for i := 0; i < numBatches; i++ {
		x := tensor.New(batchSize, channels, size, size)
		labels := make([]int, batchSize)
		for n := range labels {
			c := rng.Intn(classes)
			labels[n] = c
			img := x.Data[n*channels*plane : (n+1)*channels*plane]
			for j := range img {
				img[j] = float32(pattern[c*plane+j%plane] + rng.NormFloat64()*0.3)
			}
		}
		im.batches = append(im.batches, Batch{X: x, Labels: labels})
	}
	return im
}

// SequenceCopy is a toy translation task: the model must reproduce the
// input token sequence shifted by one (predict token t from tokens ≤ t).
// Labels are flattened [B*T] for use with a per-time-step softmax head.
type SequenceCopy struct{ set }

// NewSequenceCopy generates the copy task with the given vocabulary.
func NewSequenceCopy(seed int64, vocab, seqLen, batchSize, numBatches int) *SequenceCopy {
	rng := rand.New(rand.NewSource(seed))
	sc := &SequenceCopy{set{name: fmt.Sprintf("seqcopy(v=%d,t=%d)", vocab, seqLen)}}
	for i := 0; i < numBatches; i++ {
		x := tensor.New(batchSize, seqLen)
		labels := make([]int, batchSize*seqLen)
		for n := 0; n < batchSize; n++ {
			for t := 0; t < seqLen; t++ {
				tok := rng.Intn(vocab)
				x.Set(float32(tok), n, t)
				labels[n*seqLen+t] = tok // predict the current token (identity copy)
			}
		}
		sc.batches = append(sc.batches, Batch{X: x, Labels: labels})
	}
	return sc
}

// MarkovText is a synthetic language-modelling corpus: tokens are drawn
// from a random first-order Markov chain, so the next token is genuinely
// predictable from the previous one and perplexity can drop well below the
// vocabulary size. Labels are the next token at each position, flattened
// [B*T].
type MarkovText struct{ set }

// NewMarkovText generates a Markov-chain LM dataset.
func NewMarkovText(seed int64, vocab, seqLen, batchSize, numBatches int) *MarkovText {
	rng := rand.New(rand.NewSource(seed))
	// A sparse random transition structure: each token has a few likely
	// successors.
	succ := make([][]int, vocab)
	for v := range succ {
		succ[v] = []int{rng.Intn(vocab), rng.Intn(vocab), rng.Intn(vocab)}
	}
	mt := &MarkovText{set{name: fmt.Sprintf("markov(v=%d,t=%d)", vocab, seqLen)}}
	for i := 0; i < numBatches; i++ {
		x := tensor.New(batchSize, seqLen)
		labels := make([]int, batchSize*seqLen)
		for n := 0; n < batchSize; n++ {
			tok := rng.Intn(vocab)
			for t := 0; t < seqLen; t++ {
				x.Set(float32(tok), n, t)
				next := succ[tok][rng.Intn(len(succ[tok]))]
				labels[n*seqLen+t] = next
				tok = next
			}
		}
		mt.batches = append(mt.batches, Batch{X: x, Labels: labels})
	}
	return mt
}
