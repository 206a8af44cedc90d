package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pipedream/internal/tensor"
)

// referenceDecode is the /infer request decode as it was before the fast
// scan existed: encoding/json into [][]float32, then the row checks.
func referenceDecode(body []byte, rowSize, maxRows int) ([]float32, int, error) {
	var req struct {
		Inputs [][]float32 `json:"inputs"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, 0, err
	}
	if len(req.Inputs) == 0 || len(req.Inputs) > maxRows {
		return nil, 0, errors.New("row count")
	}
	var flat []float32
	for _, row := range req.Inputs {
		if len(row) != rowSize {
			return nil, 0, errors.New("row width")
		}
		flat = append(flat, row...)
	}
	return flat, len(req.Inputs), nil
}

// wireCorpus is bodies on both sides of the fast shape's edge: the scan
// must take or refuse each exactly as encoding/json does.
var wireCorpus = []string{
	`{"inputs":[[0.5,-0.5]]}`,
	`{"inputs":[[0.5,-0.5],[1,2]]}`,
	" {\n\t\"inputs\" : [ [ 1 , 2 ] ,\r\n [ 3 , 4 ] ] } ",
	`{"inputs":[[1,2]]} trailing garbage [[[`,
	`{"inputs":[[1,2]]}{"inputs":[[3,4]]}`,
	`{"Inputs":[[1,2]]}`,
	`{"INPUTS":[[1,2]]}`,
	`{"inputs":[[1,2]]}`,
	`{"other":1,"inputs":[[1,2]]}`,
	`{"inputs":[[1,2]],"other":[1]}`,
	`{"inputs":[[1,2]],"inputs":[[3,4]]}`,
	`{"inputs":[[1,2]],"inputs":null}`,
	`{"inputs":null}`,
	`{"inputs":[null]}`,
	`{"inputs":[[1,2],null]}`,
	`{"inputs":[[null,2]]}`,
	`{"inputs":[[1.,2]]}`,
	`{"inputs":[[.5,2]]}`,
	`{"inputs":[[+1,2]]}`,
	`{"inputs":[[01,2]]}`,
	`{"inputs":[[-,2]]}`,
	`{"inputs":[[1e,2]]}`,
	`{"inputs":[[1e+,2]]}`,
	`{"inputs":[[0x10,2]]}`,
	`{"inputs":[[1_0,2]]}`,
	`{"inputs":[[Inf,2]]}`,
	`{"inputs":[[NaN,1]]}`,
	`{"inputs":[[1e39,0]]}`,
	`{"inputs":[[-1e39,0]]}`,
	`{"inputs":[[1e999,0]]}`,
	`{"inputs":[[1e-50,-1e-50]]}`,
	`{"inputs":[[-0,0]]}`,
	`{"inputs":[[-0.0e0,0E+0]]}`,
	`{"inputs":[[3.4028235e38,1.17549435e-38]]}`,
	`{"inputs":[[3.4028236e38,1e-45]]}`,
	`{"inputs":[[16777217,0.100000001490116119384765625]]}`,
	`{"inputs":[[1234567890123456789012345678901234567890e-30,2]]}`,
	`{"inputs":[[1,2,3]]}`,
	`{"inputs":[[1]]}`,
	`{"inputs":[[1,2],[3]]}`,
	`{"inputs":[[]]}`,
	`{"inputs":[]}`,
	`{"inputs":[[1,2],]}`,
	`{"inputs":[[1,2,]]}`,
	`{"inputs":[[1 2]]}`,
	`{"inputs":[[1,2]]`,
	`{"inputs":[[1,2]`,
	`{"inputs":[[1,2`,
	`{"inputs":[["a","b"]]}`,
	`{"inputs":"zebra"}`,
	`{"inputs":[[1,2]]`,
	`[[1,2]]`,
	`null`,
	``,
	`{`,
	"{\"inputs\":[[1,\x002]]}",
	`{"inputs":[` + strings.Repeat(`[1,2],`, 3) + `[1,2]]}`,        // exactly the cap below
	`{"inputs":[` + strings.Repeat(`[1,2],`, 4) + `[1,2]]}`,        // one row over it
	`{"inputs":[` + strings.Repeat(`[1,2],`, 4) + `[1,2,3]]}`,      // over it, and the last row wide
	`{"inputs":[` + strings.Repeat(`[1,2],`, 4) + `[1,2]] garbage`, // over it, then a syntax error
}

// checkAgainstReference holds DecodeInferRequest to the reference on one
// body: same verdict, and on success bit-equal values.
func checkAgainstReference(t *testing.T, body []byte, rowSize, maxRows int) {
	t.Helper()
	want, rows, wantErr := referenceDecode(body, rowSize, maxRows)
	x, err := DecodeInferRequest(body, nil, []int{rowSize}, maxRows)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("body %q: err = %v, reference err = %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	defer tensor.Put(x)
	if x.NumDims() != 2 || x.Dim(0) != rows || x.Dim(1) != rowSize || len(x.Data) != len(want) {
		t.Fatalf("body %q: shape %v with %d values, want [%d %d]", body, x.Shape, len(x.Data), rows, rowSize)
	}
	for i := range want {
		if math.Float32bits(x.Data[i]) != math.Float32bits(want[i]) {
			t.Fatalf("body %q: value %d = %v (%#x), reference %v (%#x)", body, i,
				x.Data[i], math.Float32bits(x.Data[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestDecodeInferRequestMatchesReference(t *testing.T) {
	for _, body := range wireCorpus {
		checkAgainstReference(t, []byte(body), 2, 4)
	}
}

// TestParseNumberMatchesStrconv: the number reader's own arithmetic — a
// float64 product rounded again to float32 — agrees with
// strconv.ParseFloat(s, 32) to the bit, on shortest and over-long
// spellings of random values and on decimals at and next to the half-way
// points between float32 neighbours, where rounding twice goes wrong
// unless it is caught.
func TestParseNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(s string) {
		t.Helper()
		want, err := strconv.ParseFloat(s, 32)
		got, end := parseNumber([]byte(s+","), 0)
		if err != nil {
			if end != 0 {
				t.Fatalf("%q: read as %v, strconv: %v", s, got, err)
			}
			return
		}
		if end != len(s) || math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%q: read %d bytes as %v (%#x), strconv %v (%#x)", s, end, got, math.Float32bits(got),
				float32(want), math.Float32bits(float32(want)))
		}
	}
	for _, s := range []string{"0", "-0", "0.0", "0e5", "-0.000e-30", "1", "16777216", "16777217", "16777219", "33554434", "33554438",
		"0.1", "1e-45", "7e-46", "1.1754942e-38", "1.1754944e-38", "3.4028235e38", "3.4028236e38", "3.40282356e38",
		"1e22", "1e23", "123456789012345678", "1234567890123456789", "9007199254740993", "0.000000000000000000001e21",
		"1e1000", "1e-1000", "1e99999999999999999999", "4.2e+1", "4.2E-1"} {
		check(s)
	}
	for i := 0; i < 300000; i++ {
		v := math.Float32frombits(rng.Uint32())
		if v != v || math.IsInf(float64(v), 0) {
			continue
		}
		check(strconv.FormatFloat(float64(v), 'g', -1, 32))
		check(strconv.FormatFloat(float64(v), 'e', 3+rng.Intn(17), 64))
		// Half way to the next float32, spelled in full (exact tie), as the
		// shortest float64 (a hair off it), and cut short.
		mid := (float64(v) + float64(math.Nextafter32(v, float32(math.Inf(1))))) / 2
		if !math.IsInf(mid, 0) {
			check(strconv.FormatFloat(mid, 'e', -1, 64))
			check(strconv.FormatFloat(mid, 'e', 10+rng.Intn(8), 64))
			if e := math.Abs(mid); e >= 1 && e < 1e15 {
				check(strconv.FormatFloat(mid, 'f', -1, 64))
			}
		}
		// Plain decimals of every length with small exponents.
		check(strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10) + "e" + strconv.Itoa(rng.Intn(60)-30))
		check(strconv.FormatFloat(rng.Float64()*2-1, 'f', 1+rng.Intn(12), 64))
	}
}

// FuzzDecodeInferRequest is the same comparison on mutated bodies, at the
// codec's speed rather than a served request's (cmd/pipedream-serve's
// FuzzInferRequest holds the whole handler to its reference).
func FuzzDecodeInferRequest(f *testing.F) {
	for _, body := range wireCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAgainstReference(t, body, 2, 4) })
}

// TestDecodeInferRequestFastShape: the bodies the bench, loadgen and the
// README send take the single-pass scan, not encoding/json — the scan
// alone, called directly, reads them.
func TestDecodeInferRequestFastShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := tensor.RandUniform(rng, -1, 1, 16, 144).Data
	body, err := AppendInferRequest(nil, data, 16)
	if err != nil {
		t.Fatal(err)
	}
	std, _ := json.Marshal(inferRequest{Inputs: rowsOf(data, 16)})
	if !bytes.Equal(body, std) {
		t.Fatalf("AppendInferRequest differs from json.Marshal:\n%s\n%s", body, std)
	}
	x := scanRequest(body, []int{144}, 144, 1024)
	if x == nil {
		t.Fatal("the scan refused a plain body")
	}
	defer tensor.Put(x)
	for i, v := range data {
		if x.Data[i] != v {
			t.Fatalf("value %d = %v, want %v", i, x.Data[i], v)
		}
	}
	if _, err := AppendInferRequest(nil, []float32{1, float32(math.NaN())}, 1); err == nil {
		t.Fatal("a NaN input encoded")
	}
}

// TestDecodeInferRequestCutOffBody: when the read ended early, a value
// that completes within what was read decodes, and one that does not
// reports the read's error, as a json.Decoder on the live reader did.
func TestDecodeInferRequestCutOffBody(t *testing.T) {
	readErr := errors.New("http: request body too large")
	x, err := DecodeInferRequest([]byte(`{"inputs":[[1,2]]} , [3`), readErr, []int{2}, 4)
	if err != nil {
		t.Fatalf("complete value before the cut: %v", err)
	}
	tensor.Put(x)
	for _, body := range []string{`{"inputs":[[1,2],[3`, `{"inputs" : [[1,2],[3,4]`, ` `} {
		if _, err := DecodeInferRequest([]byte(body), readErr, []int{2}, 4); err != readErr {
			t.Fatalf("body %q: err = %v, want the read error", body, err)
		}
	}
	if _, err := DecodeInferRequest([]byte(`{"inputs":[[1,2],[x`), readErr, []int{2}, 4); err == nil || err == readErr {
		t.Fatalf("syntax error before the cut: err = %v, want encoding/json's", err)
	}
}

func rowsOf(data []float32, rows int) [][]float32 {
	out, w := make([][]float32, rows), len(data)/rows
	for r := range out {
		out[r] = data[r*w : (r+1)*w]
	}
	return out
}

// FuzzInferResponseBytes: any finite float32 bit patterns encode byte for
// byte as encoding/json encodes them, and any non-finite one is refused
// with ErrInference before a byte is produced.
func FuzzInferResponseBytes(f *testing.F) {
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), 1, -1, 3, 16777216, 0.1, 1e-6, 9.999999e-7, 1e-7,
		1e21, 9.999999e20, 1e22, math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1.1754942e-38,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		f.Add(math.Float32bits(v), math.Float32bits(-v), uint32(0x3f800000), uint32(7))
	}
	f.Fuzz(func(t *testing.T, a, b, c, d uint32) {
		bits := []uint32{a, b, c, d, a ^ d, b + c}
		y := tensor.New(2, 3)
		finite := true
		for i, u := range bits {
			y.Data[i] = math.Float32frombits(u)
			finite = finite && !math.IsNaN(float64(y.Data[i])) && !math.IsInf(float64(y.Data[i]), 0)
		}
		got, err := AppendInferResponse(nil, y)
		if !finite {
			if !errors.Is(err, ErrInference) || got != nil {
				t.Fatalf("non-finite output %v: %q, %v; want ErrInference", y.Data, got, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		argmax := make([]int, 2)
		for r := range argmax {
			for j := 0; j < 3; j++ {
				if y.Data[r*3+j] > y.Data[r*3+argmax[r]] {
					argmax[r] = j
				}
			}
		}
		var want bytes.Buffer
		err = json.NewEncoder(&want).Encode(struct {
			Outputs [][]float32 `json:"outputs"`
			Argmax  []int       `json:"argmax"`
		}{rowsOf(y.Data, 2), argmax})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("response differs from encoding/json:\n%s\n%s", got, want.Bytes())
		}
	})
}

func BenchmarkDecodeInferRequest(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	body, _ := AppendInferRequest(nil, tensor.RandUniform(rng, -1, 1, 16, 144).Data, 16)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := DecodeInferRequest(body, nil, []int{144}, 1024)
		if err != nil {
			b.Fatal(err)
		}
		tensor.Put(x)
	}
}
