package transport

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"unsafe"

	"pipedream/internal/tensor"
)

// Binary activation framing for the socket transports. gob's reflection
// walk allocated and copied every tensor twice per send (Message →
// encoder buffer → socket). A frame's header, dims and labels are built in
// a per-connection buffer; its payload is the tensor's own storage, handed
// to the kernel beside that buffer in one writev, and the receive side
// reads it from the socket straight into a pooled tensor's storage. The
// format is little-endian and versioned by magic:
//
//	[0:4)   magic "PDF2"
//	[4:8)   kind (uint32)
//	[8:16)  minibatch (int64)
//	[16:24) version (int64)
//	[24:40) chunk info: bucket, phase, step, chunk (4 × int32)
//	[40:44) label count (uint32)
//	[44:48) tensor rank (uint32; frameNilTensor = no tensor)
//	[48:52) source stage (int32; DAG edge attribution)
//	[52:56) sink stage (int32; per-head serving route)
//	then    rank × uint32 dims, labels × int64, elems × float32
const (
	frameMagic     = 0x50444632 // "PDF2"
	frameHeaderLen = 56
	// frameNilTensor in the rank field marks a message without a tensor
	// (heartbeats, failed-batch predictions).
	frameNilTensor = 0xFFFFFFFF
	// frameMaxDims and frameMaxElems bound what a frame may describe, so
	// a corrupt or hostile header cannot demand an absurd allocation.
	frameMaxDims   = 16
	frameMaxElems  = 1 << 28 // 1 GiB of float32 payload
	frameMaxLabels = 1 << 24
	// framePiece bounds what a reader allocates ahead of the bytes: a
	// frame part beyond it is read into storage that grows as they arrive.
	framePiece = 16 << 20
)

// hostLittleEndian reports that float32 storage already has the wire's
// byte order, so payloads cross the codec as bytes. On any other host the
// scalar loops below convert element by element.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// payloadBytes returns t's storage viewed as bytes.
func payloadBytes(t *tensor.Tensor) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t.Data))), 4*len(t.Data))
}

// appendFrame encodes m's header, dims and labels into buf (reusing its
// capacity) and returns the frame as the two byte ranges one writev hands
// the kernel. With native set (little-endian hosts) payload is the
// tensor's storage itself: no intermediate encoding buffer exists.
// Otherwise the elements are converted into buf behind the labels and
// payload is empty.
func appendFrame(buf []byte, m Message, native bool) (head, payload []byte, err error) {
	if len(m.Labels) > frameMaxLabels {
		return buf, nil, fmt.Errorf("transport: frame %d labels exceeds %d", len(m.Labels), frameMaxLabels)
	}
	need := frameHeaderLen + 8*len(m.Labels)
	if t := m.Tensor; t != nil {
		if t.NumDims() > frameMaxDims {
			return buf, nil, fmt.Errorf("transport: frame tensor rank %d exceeds %d", t.NumDims(), frameMaxDims)
		}
		if t.Size() > frameMaxElems {
			return buf, nil, fmt.Errorf("transport: frame tensor %d elems exceeds %d", t.Size(), frameMaxElems)
		}
		need += 4 * t.NumDims()
		if native {
			payload = payloadBytes(t)
		} else {
			need += 4 * t.Size()
		}
	}
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	le := binary.LittleEndian
	le.PutUint32(buf[0:], frameMagic)
	le.PutUint32(buf[4:], uint32(m.Kind))
	le.PutUint64(buf[8:], uint64(m.Minibatch))
	le.PutUint64(buf[16:], uint64(m.Version))
	le.PutUint32(buf[24:], uint32(int32(m.Chunk.Bucket)))
	le.PutUint32(buf[28:], uint32(int32(m.Chunk.Phase)))
	le.PutUint32(buf[32:], uint32(int32(m.Chunk.Step)))
	le.PutUint32(buf[36:], uint32(int32(m.Chunk.Chunk)))
	le.PutUint32(buf[40:], uint32(len(m.Labels)))
	le.PutUint32(buf[44:], frameNilTensor)
	le.PutUint32(buf[48:], uint32(int32(m.Src)))
	le.PutUint32(buf[52:], uint32(int32(m.Sink)))
	off := frameHeaderLen
	if m.Tensor != nil {
		le.PutUint32(buf[44:], uint32(m.Tensor.NumDims()))
		for _, d := range m.Tensor.Shape {
			le.PutUint32(buf[off:], uint32(d))
			off += 4
		}
	}
	for _, l := range m.Labels {
		le.PutUint64(buf[off:], uint64(int64(l)))
		off += 8
	}
	if m.Tensor != nil && !native {
		for _, v := range m.Tensor.Data {
			le.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
	}
	return buf, payload, nil
}

// readFrame decodes one frame from r. scratch is the caller's reusable
// byte buffer for the header, dims and labels (grown as needed and
// returned for the next call). The payload is read from r directly into
// the storage of a tensor from the global pool — with native unset its
// elements are then converted in place — which the receiver owns and
// recycles with tensor.Put when done. On any error nothing is delivered
// and a partly filled tensor goes back to the pool; only a stream that
// ends between frames returns io.EOF itself.
func readFrame(r io.Reader, scratch []byte, native bool) (Message, []byte, error) {
	if err := readInto(r, &scratch, frameHeaderLen); err != nil {
		return Message{}, scratch, err
	}
	le := binary.LittleEndian
	if le.Uint32(scratch[0:]) != frameMagic {
		return Message{}, scratch, fmt.Errorf("transport: bad frame magic %#x", le.Uint32(scratch[0:]))
	}
	m := Message{
		Kind:      MsgKind(le.Uint32(scratch[4:])),
		Minibatch: int(int64(le.Uint64(scratch[8:]))),
		Version:   int(int64(le.Uint64(scratch[16:]))),
		Chunk: ChunkInfo{
			Bucket: int(int32(le.Uint32(scratch[24:]))),
			Phase:  int(int32(le.Uint32(scratch[28:]))),
			Step:   int(int32(le.Uint32(scratch[32:]))),
			Chunk:  int(int32(le.Uint32(scratch[36:]))),
		},
		Src:  int(int32(le.Uint32(scratch[48:]))),
		Sink: int(int32(le.Uint32(scratch[52:]))),
	}
	nLabels := int(le.Uint32(scratch[40:]))
	rank := le.Uint32(scratch[44:])
	if nLabels > frameMaxLabels {
		return Message{}, scratch, fmt.Errorf("transport: frame %d labels exceeds %d", nLabels, frameMaxLabels)
	}
	hasTensor := rank != frameNilTensor
	if !hasTensor {
		rank = 0
	}
	if rank > frameMaxDims {
		return Message{}, scratch, fmt.Errorf("transport: frame tensor rank %d exceeds %d", rank, frameMaxDims)
	}
	if err := readInto(r, &scratch, 4*int(rank)+8*nLabels); err != nil {
		return Message{}, scratch, fmt.Errorf("transport: truncated frame: %w", err)
	}
	var dims [frameMaxDims]int
	shape := dims[:rank]
	elems := 1
	for i := range shape {
		d := le.Uint32(scratch[4*i:])
		if d > frameMaxElems {
			return Message{}, scratch, fmt.Errorf("transport: frame dim %d out of range", d)
		}
		shape[i] = int(d)
		if elems *= int(d); elems > frameMaxElems {
			return Message{}, scratch, fmt.Errorf("transport: frame tensor exceeds %d elems", frameMaxElems)
		}
	}
	if nLabels > 0 {
		m.Labels = make([]int, nLabels)
		for i := range m.Labels {
			m.Labels[i] = int(int64(le.Uint64(scratch[4*len(shape)+8*i:])))
		}
	}
	if hasTensor {
		// Pooled, not fresh: a receiver that recycles what it consumed
		// turns this into a free-list hit instead of a payload-sized
		// allocation. A payload over a piece is copied in once it is whole.
		var t *tensor.Tensor
		var b []byte
		if 4*elems <= framePiece {
			t = tensor.GetRaw(shape...)
			b = payloadBytes(t)
		}
		if err := readInto(r, &b, 4*elems); err != nil {
			tensor.Put(t)
			return Message{}, scratch, fmt.Errorf("transport: truncated frame: %w", err)
		}
		if t == nil {
			t = tensor.GetRaw(shape...)
			copy(payloadBytes(t), b)
		}
		if !native {
			for i := range t.Data {
				t.Data[i] = math.Float32frombits(le.Uint32(b[4*i:]))
			}
		}
		m.Tensor = t
	}
	return m, scratch, nil
}

// readInto fills the first n bytes of *scratch from r, growing the
// buffer when needed; past framePiece into a new one that grows as the
// bytes arrive.
func readInto(r io.Reader, scratch *[]byte, n int) error {
	if n > framePiece {
		var b bytes.Buffer
		if _, err := b.ReadFrom(io.LimitReader(r, int64(n))); err != nil || b.Len() < n {
			return cmp.Or(err, io.ErrUnexpectedEOF)
		}
		*scratch = b.Bytes()
		return nil
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	*scratch = (*scratch)[:n]
	_, err := io.ReadFull(r, *scratch)
	return err
}

// frameReadLoop drains one connection, decoding frames into inbox until
// the connection or transport closes. It returns nil when the peer hung
// up between frames or this endpoint closed the connection, and otherwise
// the decode error of the truncated or corrupt frame that ended it.
func frameReadLoop(conn io.Reader, inbox chan<- Message, closed <-chan struct{}) error {
	br := bufio.NewReaderSize(conn, 64<<10)
	var scratch []byte
	for {
		m, s, err := readFrame(br, scratch, hostLittleEndian)
		if err != nil {
			if err == io.EOF || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		scratch = s
		select {
		case inbox <- m:
		case <-closed:
			return nil
		}
	}
}
