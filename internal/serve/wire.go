package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"pipedream/internal/tensor"
)

// This file owns the /infer wire format (docs/SERVING.md, "/infer wire
// format"): pipedream-serve decodes requests and encodes responses with
// it, pipedream-loadgen encodes requests with it.
//
//	request   {"inputs": [[row floats...], ...]}
//	response  {"outputs": [[row floats...], ...], "argmax": [class, ...]}

// inferRequest is the request as encoding/json sees it: the reference
// the scan in DecodeInferRequest is held to, and the decoder of every
// body that scan does not recognise.
type inferRequest struct {
	Inputs [][]float32 `json:"inputs"`
}

// DecodeInferRequest parses a POST /infer body into a pooled
// [rows, rowShape...] tensor the caller owns: it releases it with
// tensor.Put once Infer has returned a result, and leaves it to the GC
// when Infer failed (a split request answers with its first failed batch,
// while dispatch may still have a later one to assemble from the tensor).
// body is what was read of the request, readErr what ended the
// read early, if anything did (a body over the size cap).
//
// A body of the plain shape — the one key "inputs", rows of JSON numbers,
// any whitespace — is scanned once, each number parsed straight into the
// tensor. Whatever the scan gives up on goes to encoding/json, so the
// accepted bodies, the values and the error texts are encoding/json's.
// Every error is the client's (HTTP 400).
func DecodeInferRequest(body []byte, readErr error, rowShape []int, maxRows int) (*tensor.Tensor, error) {
	rowSize := 1
	for _, d := range rowShape {
		rowSize *= d
	}
	if x := scanRequest(body, rowShape, rowSize, maxRows); x != nil {
		return x, nil
	}
	var req inferRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		if readErr != nil && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			err = readErr // the value ran into the end of a cut-off body
		}
		return nil, err
	}
	rows := len(req.Inputs)
	if rows == 0 {
		return nil, errors.New("no inputs")
	}
	if rows > maxRows {
		return nil, fmt.Errorf("%d rows exceeds the per-request cap of %d", rows, maxRows)
	}
	x := tensor.GetRaw(append([]int{rows}, rowShape...)...)
	for i, row := range req.Inputs {
		if len(row) != rowSize {
			tensor.Put(x)
			return nil, fmt.Errorf("input %d has %d values, want %d", i, len(row), rowSize)
		}
		copy(x.Data[i*rowSize:], row)
	}
	return x, nil
}

// scanRequest is the single pass over a plain-shape body. It returns nil
// for anything else: a byte outside the shape, a row that is not rowSize
// wide, row maxRows+1. Like a json.Decoder it stops at the object's
// closing brace and ignores what follows.
func scanRequest(b []byte, rowShape []int, rowSize, maxRows int) *tensor.Tensor {
	i := 0
	space := func() {
		for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
			i++
		}
	}
	// skip consumes lit if it is what follows any whitespace.
	skip := func(lit string) bool {
		space()
		ok := bytes.HasPrefix(b[i:], []byte(lit))
		if ok {
			i += len(lit)
		}
		return ok
	}
	if !skip("{") || !skip(`"inputs"`) || !skip(":") || !skip("[") {
		return nil
	}
	// Every row opens a bracket, so this bounds the rows from above.
	rows := min(bytes.Count(b[i:], []byte{'['}), maxRows)
	x := tensor.GetRaw(append([]int{rows}, rowShape...)...)
	for r, n := 0, 0; r < rows && skip("["); r++ {
		for col := 0; col < rowSize && (col == 0 || skip(",")); col++ {
			space()
			v, end := parseNumber(b, i)
			if end == i {
				break
			}
			x.Data[n], i = v, end
			n++
		}
		if n != (r+1)*rowSize || !skip("]") {
			break
		}
		if skip(",") {
			continue
		}
		if skip("]") && skip("}") {
			x.Shape[0], x.Data = r+1, x.Data[:n]
			return x
		}
		break
	}
	tensor.Put(x)
	return nil
}

// pow10 is the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseNumber reads the JSON number at b[i] as the float32
// strconv.ParseFloat(s, 32) makes of it and returns the index after it —
// i when there is no number there or float32 cannot hold it. JSON's
// grammar is narrower than ParseFloat's (no "+1", ".5", "1.", "01", hex,
// "Inf"), so it is checked here, gathering the digits on the way. When
// digits and power of ten both fit a float64 exactly, one multiplication
// or division gives the correctly rounded float64 (1e-22..1e38: a normal
// float32), and rounding that again is right unless it lies exactly half
// way between two float32s, where the first rounding hid which side the
// decimal was on. That case and longer numbers go to strconv.
func parseNumber(b []byte, i int) (float32, int) {
	var m uint64 // the digits as an integer; wraps past 19 of them, unused then
	digits := func(j int) int {
		for ; j < len(b) && b[j]-'0' <= 9; j++ {
			m = m*10 + uint64(b[j]-'0')
		}
		return j
	}
	first := i
	if first < len(b) && b[first] == '-' {
		first++
	}
	j := digits(first)
	if j == first || b[first] == '0' && j > first+1 {
		return 0, i
	}
	nd, exp := j-first, 0
	if j < len(b) && b[j] == '.' {
		k := digits(j + 1)
		if k == j+1 {
			return 0, i
		}
		nd, exp, j = nd+k-j-1, j+1-k, k
	}
	if j < len(b) && b[j]|0x20 == 'e' {
		k := j + 1
		if k < len(b) && (b[k] == '-' || b[k] == '+') {
			k++
		}
		e, d := 0, k
		for ; k < len(b) && b[k]-'0' <= 9; k++ {
			e = min(e*10+int(b[k]-'0'), 1000)
		}
		if k == d {
			return 0, i
		}
		if b[d-1] == '-' {
			e = -e
		}
		exp, j = exp+e, k
	}
	if nd <= 18 && m < 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(m) * pow10[max(exp, 0)] / pow10[max(-exp, 0)]
		if m == 0 || math.Float64bits(f)&(1<<29-1) != 1<<28 {
			if first > i { // a minus sign was stepped over
				f = -f
			}
			return float32(f), j
		}
	}
	// ≤ 32 bytes convert on the stack; ParseFloat keeps no reference.
	v, err := strconv.ParseFloat(string(b[i:j]), 32)
	if err != nil {
		return 0, i
	}
	return float32(v), j
}

// AppendInferRequest appends the /infer body for rows input rows stored
// back to back in data. A non-finite value has no JSON form and is an
// error.
func AppendInferRequest(dst []byte, data []float32, rows int) ([]byte, error) {
	dst, err := appendRows(append(dst, `{"inputs":`...), data, rows)
	if err != nil {
		return nil, fmt.Errorf("serve: input %v", err)
	}
	return append(dst, '}'), nil
}

// AppendInferResponse appends the /infer response for the output rows y:
// every row's values and the index of its largest, byte for byte what
// encoding/json writes for them (newline included). A NaN or ±Inf output
// — a diverged checkpoint — has no JSON form: nothing usable is appended
// and the error wraps ErrInference.
func AppendInferResponse(dst []byte, y *tensor.Tensor) ([]byte, error) {
	rows := y.Dim(0)
	dst, err := appendRows(append(dst, `{"outputs":`...), y.Data, rows)
	if err != nil {
		return nil, fmt.Errorf("serve: output %v: %w", err, ErrInference)
	}
	dst = append(dst, `,"argmax":[`...)
	for w, r := len(y.Data)/rows, 0; r < rows; r++ {
		row, best := y.Data[r*w:(r+1)*w], 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if r > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(best), 10)
	}
	return append(dst, "]}\n"...), nil
}

// appendRows appends data as a JSON array of rows equal-width arrays,
// each number formatted as encoding/json formats a float32: shortest
// digits that round-trip, exponent form below 1e-6 and from 1e21 with
// "e-07" written "e-7".
func appendRows(dst []byte, data []float32, rows int) ([]byte, error) {
	dst = append(dst, '[')
	for w, r := len(data)/rows, 0; r < rows; r++ {
		if r > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range data[r*w : (r+1)*w] {
			if j > 0 {
				dst = append(dst, ',')
			}
			abs := float32(math.Abs(float64(v)))
			if !(abs <= math.MaxFloat32) {
				return nil, fmt.Errorf("row %d holds %v", r, v)
			}
			format := byte('f')
			if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
				format = 'e'
			}
			dst = strconv.AppendFloat(dst, float64(v), format, -1, 32)
			if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
				dst[n-2] = dst[n-1]
				dst = dst[:n-1]
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}
