package nn

import (
	"fmt"
	"math"

	"pipedream/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss over a
// batch of logits [B, C] and integer labels, returning the loss and the
// gradient with respect to the logits (already averaged over the batch).
// The gradient comes from the tensor pool and is the caller's to release.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if logits.NumDims() != 2 || logits.Dim(0) != len(labels) {
		panic(fmt.Sprintf("nn: cross-entropy logits %v with %d labels", logits.Shape, len(labels)))
	}
	b, c := logits.Dim(0), logits.Dim(1)
	grad := tensor.GetRaw(b, c) // every element is written below
	var loss float64
	inv := 1 / float64(b)
	for n := 0; n < b; n++ {
		row := logits.Data[n*c : (n+1)*c]
		label := labels[n]
		if label < 0 || label >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, c))
		}
		// Numerically stable log-softmax.
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		logSum := math.Log(sum)
		loss += -(float64(row[label]-maxV) - logSum) * inv
		grow := grad.Data[n*c : (n+1)*c]
		for j, v := range row {
			p := math.Exp(float64(v-maxV)) / sum
			grow[j] = float32(p * inv)
		}
		grow[label] -= float32(inv)
	}
	return loss, grad
}

// MSE computes the mean squared error between pred and target along with
// the gradient with respect to pred (pooled, like SoftmaxCrossEntropy's).
func MSE(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if pred.Size() != target.Size() {
		panic(fmt.Sprintf("nn: mse size mismatch %v vs %v", pred.Shape, target.Shape))
	}
	grad := tensor.GetRaw(pred.Shape...)
	var loss float64
	inv := 1 / float64(pred.Size())
	for i := range pred.Data {
		d := float64(pred.Data[i]) - float64(target.Data[i])
		loss += d * d * inv
		grad.Data[i] = float32(2 * d * inv)
	}
	return loss, grad
}

// Accuracy returns the fraction of rows of logits [B, C] whose argmax
// matches the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	pred := tensor.ArgMaxRows(logits)
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("nn: accuracy %d preds for %d labels", len(pred), len(labels)))
	}
	hits := 0
	for i, p := range pred {
		if p == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(labels))
}

// Perplexity converts a mean cross-entropy loss (nats) to perplexity.
func Perplexity(meanLoss float64) float64 { return math.Exp(meanLoss) }
