//go:build !amd64

package tensor

// Hosts without micro-kernels: the vector side computes no columns and
// the portable loops in matmul.go are the only implementation.

func rowPanelVec(crow, arow, bd []float32, k, n int) int { return 0 }

func transAPanelVec(cd, ad, bd []float32, m, k, n, lo, hi int) int { return 0 }

func transBPanelVec(cd, ad, bd []float32, k, n, lo, hi int) int { return 0 }

func convImageVec(out, img, wd, bias []float32, taps []int, outC int, g ConvGeom) int { return 0 }

func reluVec(dst, src []float32, mask []byte) int { return 0 }

func reluBackwardVec(dst, gradOut []float32, mask []byte) int { return 0 }

func addVec(dst, a, b []float32) int { return 0 }

func addScaledVec(dst, a []float32, s float32, b []float32) int { return 0 }

func addScaleVec(dst, a, b []float32, s float32) int { return 0 }

func tanhVec(dst, src []float32) int { return 0 }

func sigmoidVec(dst, src []float32) int { return 0 }
