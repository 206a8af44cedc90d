#include "textflag.h"

// AVX2 micro-kernels under the three matrix products. Each vectorises
// across output columns (or, for A·Bᵀ, across the four strided partial
// sums of one dot product, two rows to a register) and keeps its
// accumulators in registers for the whole k loop; the backward two
// compute several rows per pass. Multiplies and adds are separate
// instructions issued in exactly the association order of the portable
// loops in matmul.go, so every lane computes what the scalar code
// computes: no FMA, no reassociation, bit-identical results.

// func cpuFeatures() (avx2, fma bool)
// avx2: CPUID leaf 1 must report OSXSAVE and AVX, XCR0 must have the XMM
// and YMM state enabled by the OS, and CPUID leaf 7 must report AVX2.
// fma: all of that and CPUID leaf 1's FMA bit.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB $0, avx2+0(FP)
	MOVB $0, fma+1(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  probed
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, SI
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  probed
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  probed
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, avx2+0(FP)
	SHRL $12, SI
	ANDL BX, SI
	MOVB SI, fma+1(FP)
probed:
	RET

// One 8-term group of the row panel for the column vector at byte
// offset d: acc += ((((((a0·b0 + a1·b1) + a2·b2) + a3·b3) + a4·b4) +
// a5·b5) + a6·b6) + a7·b7. BX and R11 address B rows p and p+4, R8 is
// the row stride in bytes, R12 three times that; the eight broadcast A
// coefficients sit in registers 8..15.
#define ROW_GROUP8_Y(d, acc) \
	VMULPS d(BX), Y8, Y4; \
	VMULPS d(BX)(R8*1), Y9, Y5; \
	VADDPS Y5, Y4, Y4; \
	VMULPS d(BX)(R8*2), Y10, Y5; \
	VADDPS Y5, Y4, Y4; \
	VMULPS d(BX)(R12*1), Y11, Y5; \
	VADDPS Y5, Y4, Y4; \
	VMULPS d(R11), Y12, Y5; \
	VADDPS Y5, Y4, Y4; \
	VMULPS d(R11)(R8*1), Y13, Y5; \
	VADDPS Y5, Y4, Y4; \
	VMULPS d(R11)(R8*2), Y14, Y5; \
	VADDPS Y5, Y4, Y4; \
	VMULPS d(R11)(R12*1), Y15, Y5; \
	VADDPS Y5, Y4, Y4; \
	VADDPS Y4, acc, acc

#define ROW_GROUP8_X(acc) \
	VMULPS (BX), X8, X4; \
	VMULPS (BX)(R8*1), X9, X5; \
	VADDPS X5, X4, X4; \
	VMULPS (BX)(R8*2), X10, X5; \
	VADDPS X5, X4, X4; \
	VMULPS (BX)(R12*1), X11, X5; \
	VADDPS X5, X4, X4; \
	VMULPS (R11), X12, X5; \
	VADDPS X5, X4, X4; \
	VMULPS (R11)(R8*1), X13, X5; \
	VADDPS X5, X4, X4; \
	VMULPS (R11)(R8*2), X14, X5; \
	VADDPS X5, X4, X4; \
	VMULPS (R11)(R12*1), X15, X5; \
	VADDPS X5, X4, X4; \
	VADDPS X4, acc, acc

#define ROW_BROADCAST8 \
	VBROADCASTSS 0(AX), Y8; \
	VBROADCASTSS 4(AX), Y9; \
	VBROADCASTSS 8(AX), Y10; \
	VBROADCASTSS 12(AX), Y11; \
	VBROADCASTSS 16(AX), Y12; \
	VBROADCASTSS 20(AX), Y13; \
	VBROADCASTSS 24(AX), Y14; \
	VBROADCASTSS 28(AX), Y15; \
	LEAQ (BX)(R8*4), R11

// func rowPanelAVX2(c, a, b *float32, k, n, cols int)
// c[j] = Σp a[p]·b[p*n+j] for j in [0,cols) in matmulRowPanel's order:
// groups of eight k-steps, then single steps. cols is a multiple of 4
// and k > 0. Column blocks of 32, 8 and 4 lanes.
TEXT ·rowPanelAVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8
	MOVQ cols+40(FP), R9
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R12
	LEAQ 0(R8*8), R13

row32:
	CMPQ   R9, $32
	JLT    row8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   CX, R10

row32k8:
	CMPQ R10, $8
	JLT  row32k1
	ROW_BROADCAST8
	ROW_GROUP8_Y(0, Y0)
	ROW_GROUP8_Y(32, Y1)
	ROW_GROUP8_Y(64, Y2)
	ROW_GROUP8_Y(96, Y3)
	ADDQ $32, AX
	ADDQ R13, BX
	SUBQ $8, R10
	JMP  row32k8

	// The single-step loop is all that runs when k < 8: its speed
	// depends on where it falls within a 64-byte line, so pin that.
	PCALIGN $64

row32k1:
	TESTQ        R10, R10
	JZ           row32store
	VBROADCASTSS (AX), Y8
	VMULPS       0(BX), Y8, Y4
	VADDPS       Y4, Y0, Y0
	VMULPS       32(BX), Y8, Y5
	VADDPS       Y5, Y1, Y1
	VMULPS       64(BX), Y8, Y6
	VADDPS       Y6, Y2, Y2
	VMULPS       96(BX), Y8, Y7
	VADDPS       Y7, Y3, Y3
	ADDQ         $4, AX
	ADDQ         R8, BX
	DECQ         R10
	JMP          row32k1

row32store:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $32, R9
	JMP     row32

row8:
	CMPQ   R9, $8
	JLT    row4
	VXORPS Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   CX, R10

row8k8:
	CMPQ R10, $8
	JLT  row8k1
	ROW_BROADCAST8
	ROW_GROUP8_Y(0, Y0)
	ADDQ $32, AX
	ADDQ R13, BX
	SUBQ $8, R10
	JMP  row8k8

row8k1:
	TESTQ        R10, R10
	JZ           row8store
	VBROADCASTSS (AX), Y8
	VMULPS       (BX), Y8, Y4
	VADDPS       Y4, Y0, Y0
	ADDQ         $4, AX
	ADDQ         R8, BX
	DECQ         R10
	JMP          row8k1

row8store:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $8, R9
	JMP     row8

row4:
	CMPQ   R9, $4
	JLT    rowdone
	VXORPS X0, X0, X0
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   CX, R10

row4k8:
	CMPQ R10, $8
	JLT  row4k1
	ROW_BROADCAST8
	ROW_GROUP8_X(X0)
	ADDQ $32, AX
	ADDQ R13, BX
	SUBQ $8, R10
	JMP  row4k8

row4k1:
	TESTQ        R10, R10
	JZ           row4store
	VBROADCASTSS (AX), X8
	VMULPS       (BX), X8, X4
	VADDPS       X4, X0, X0
	ADDQ         $4, AX
	ADDQ         R8, BX
	DECQ         R10
	JMP          row4k1

row4store:
	VMOVUPS X0, (DI)

rowdone:
	VZEROUPPER
	RET

// One 4-term group of Aᵀ·B for C row r of a block, whose B rows
// p..p+3 sit in b0..b3 for all four rows:
// acc += ((a0·b0 + a1·b1) + a2·b2) + a3·b3. The row's coefficients
// are broadcast from byte d of SI (d = 4r) down its A column (R11 is
// A's row stride in bytes, R13 three times that).
#define TRANSA_ROW4(d, acc, b0, b1, b2, b3, t, u) \
	VBROADCASTSS d(SI), t; \
	VMULPS       b0, t, t; \
	VBROADCASTSS d(SI)(R11*1), u; \
	VMULPS       b1, u, u; \
	VADDPS       u, t, t; \
	VBROADCASTSS d(SI)(R11*2), u; \
	VMULPS       b2, u, u; \
	VADDPS       u, t, t; \
	VBROADCASTSS d(SI)(R13*1), u; \
	VMULPS       b3, u, u; \
	VADDPS       u, t, t; \
	VADDPS       t, acc, acc

// One single k-step for C row r: acc += a·b0.
#define TRANSA_ROW1(d, acc, b0, t) \
	VBROADCASTSS d(SI), t; \
	VMULPS       b0, t, t; \
	VADDPS       t, acc, acc

// One column block of the four rows, its width that of the registers
// named: accumulators y0..y3, B rows p..p+3 in b0..b3, temporaries t
// and u, and the block's own labels for its two k loops and its store.
// SI walks A, BX the rows of B from the block's column DX, R10 counts k
// down; the block's C rows start at DI, R8 bytes apart.
#define TRANSA_BLOCK(k4, k1, store, y0, y1, y2, y3, b0, b1, b2, b3, t, u) \
	VXORPS  y0, y0, y0; \
	VXORPS  y1, y1, y1; \
	VXORPS  y2, y2, y2; \
	VXORPS  y3, y3, y3; \
	MOVQ    a+8(FP), SI; \
	MOVQ    DX, BX; \
	MOVQ    CX, R10; \
k4: \
	CMPQ    R10, $4; \
	JLT     k1; \
	VMOVUPS (BX), b0; \
	VMOVUPS (BX)(R8*1), b1; \
	VMOVUPS (BX)(R8*2), b2; \
	VMOVUPS (BX)(R12*1), b3; \
	TRANSA_ROW4(0, y0, b0, b1, b2, b3, t, u); \
	TRANSA_ROW4(4, y1, b0, b1, b2, b3, t, u); \
	TRANSA_ROW4(8, y2, b0, b1, b2, b3, t, u); \
	TRANSA_ROW4(12, y3, b0, b1, b2, b3, t, u); \
	LEAQ    (SI)(R11*4), SI; \
	LEAQ    (BX)(R8*4), BX; \
	SUBQ    $4, R10; \
	JMP     k4; \
k1: \
	TESTQ   R10, R10; \
	JZ      store; \
	VMOVUPS (BX), b0; \
	TRANSA_ROW1(0, y0, b0, t); \
	TRANSA_ROW1(4, y1, b0, t); \
	TRANSA_ROW1(8, y2, b0, t); \
	TRANSA_ROW1(12, y3, b0, t); \
	ADDQ    R11, SI; \
	ADDQ    R8, BX; \
	DECQ    R10; \
	JMP     k1; \
store: \
	VMOVUPS y0, (DI); \
	VMOVUPS y1, (DI)(R8*1); \
	VMOVUPS y2, (DI)(R8*2); \
	VMOVUPS y3, (DI)(R12*1)

// func transARowsAVX2(c, a, b *float32, k, m, n, cols int)
// c[r*n+j] = Σp a[p*m+r]·b[p*n+j] for r in 0..3 and j in [0,cols) —
// four adjacent output rows of Aᵀ·B — in MatMulTransAInto's order:
// groups of four k-steps, then single steps, each row its own chain.
// Every B row segment is loaded once for the four rows. cols is a
// multiple of 4 and k > 0. Column blocks of 8 lanes, then one of 4.
TEXT ·transARowsAVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ m+32(FP), R11
	MOVQ n+40(FP), R8
	MOVQ cols+48(FP), R9
	SHLQ $2, R11
	SHLQ $2, R8
	LEAQ (R11)(R11*2), R13
	LEAQ (R8)(R8*2), R12

ta8:
	CMPQ R9, $8
	JLT  ta4
	TRANSA_BLOCK(ta8k4, ta8k1, ta8store, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, R9
	JMP  ta8

ta4:
	CMPQ R9, $4
	JLT  tadone
	TRANSA_BLOCK(ta4k4, ta4k1, ta4store, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9)

tadone:
	VZEROUPPER
	RET

// One 4-step group of four dot products of A·Bᵀ for two A rows: Y8
// holds [aᵢ[p:p+4] | aᵢ′[p:p+4]] and each B row's four values are
// broadcast to both halves, so lane l of acc_j's low (high) half is
// row i's (i′'s) strided partial sum s_l of column j, and
// acc_j += a · b_j[p:p+4] lane by lane. base addresses B rows j..j+3
// (R8 is the row stride in bytes, R12 three times that).
#define TRANSB_GROUP4(base, acc0, acc1, acc2, acc3) \
	VBROADCASTF128 (base), Y9; \
	VMULPS         Y9, Y8, Y9; \
	VADDPS         Y9, acc0, acc0; \
	VBROADCASTF128 (base)(R8*1), Y10; \
	VMULPS         Y10, Y8, Y10; \
	VADDPS         Y10, acc1, acc1; \
	VBROADCASTF128 (base)(R8*2), Y11; \
	VMULPS         Y11, Y8, Y11; \
	VADDPS         Y11, acc2, acc2; \
	VBROADCASTF128 (base)(R12*1), Y12; \
	VMULPS         Y12, Y8, Y12; \
	VADDPS         Y12, acc3, acc3

// Transposes the four accumulators within each half so that lanes
// become columns, then out = ((s0 + s1) + s2) + s3 for four columns of
// both rows at once.
#define TRANSB_REDUCE4(acc0, acc1, acc2, acc3, out) \
	VUNPCKLPS acc1, acc0, Y9; \
	VUNPCKHPS acc1, acc0, Y10; \
	VUNPCKLPS acc3, acc2, Y11; \
	VUNPCKHPS acc3, acc2, Y12; \
	VUNPCKLPD Y11, Y9, out; \
	VUNPCKHPD Y11, Y9, Y13; \
	VADDPS    Y13, out, out; \
	VUNPCKLPD Y12, Y10, Y13; \
	VADDPS    Y13, out, out; \
	VUNPCKHPD Y12, Y10, Y13; \
	VADDPS    Y13, out, out

// Y8 = [aᵢ[p] ×4 | aᵢ′[p] ×4] for one tail step.
#define TRANSB_A1 \
	VBROADCASTSS (AX), X8; \
	VBROADCASTSS (AX)(R14*1), X10; \
	VINSERTF128  $1, X10, Y8, Y8

// One tail step for four columns of both rows:
// out += Y8 · (b_j[p], …, b_j+3[p]) in each half.
#define TRANSB_TAIL1(base, out) \
	VMOVSS      (base), X9; \
	VINSERTPS   $0x10, (base)(R8*1), X9, X9; \
	VINSERTPS   $0x20, (base)(R8*2), X9, X9; \
	VINSERTPS   $0x30, (base)(R12*1), X9, X9; \
	VINSERTF128 $1, X9, Y9, Y9; \
	VMULPS      Y9, Y8, Y9; \
	VADDPS      Y9, out, out

// Stores four columns of both rows: lo, the low half of out, to row i
// at byte offset d of DI, the high half to row i′, R13 bytes further.
#define TRANSB_STORE(d, lo, out) \
	VMOVUPS      lo, d(DI); \
	VEXTRACTF128 $1, out, d(DI)(R13*1)

// func transBRowsAVX2(c, a *[2]*float32, b *float32, k, cols int)
// c[r][j] = Σp a[r][p]·b[j*k+p] for r in 0..1 and j in [0,cols) — two
// output rows of A·Bᵀ (an odd last row is passed as both) — in
// MatMulTransBInto's order: four strided partial sums over the groups
// of four k-steps, ((s0+s1)+s2)+s3, then single steps. cols is a
// multiple of 4 and k > 0. Column blocks of 8 and 4 dot products.
TEXT ·transBRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), AX
	MOVQ 0(AX), DI
	MOVQ 8(AX), R13
	SUBQ DI, R13
	MOVQ a+8(FP), AX
	MOVQ 0(AX), SI
	MOVQ 8(AX), R14
	SUBQ SI, R14
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ cols+32(FP), R9
	LEAQ 0(CX*4), R8
	LEAQ (R8)(R8*2), R12

tb8:
	CMPQ   R9, $8
	JLT    tb4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, AX
	MOVQ   DX, BX
	LEAQ   (DX)(R8*4), R11
	MOVQ   CX, R10

tb8k4:
	CMPQ        R10, $4
	JLT         tb8reduce
	VMOVUPS     (AX), X8
	VINSERTF128 $1, (AX)(R14*1), Y8, Y8
	TRANSB_GROUP4(BX, Y0, Y1, Y2, Y3)
	TRANSB_GROUP4(R11, Y4, Y5, Y6, Y7)
	ADDQ        $16, AX
	ADDQ        $16, BX
	ADDQ        $16, R11
	SUBQ        $4, R10
	JMP         tb8k4

tb8reduce:
	TRANSB_REDUCE4(Y0, Y1, Y2, Y3, Y14)
	TRANSB_REDUCE4(Y4, Y5, Y6, Y7, Y15)

tb8k1:
	TESTQ R10, R10
	JZ    tb8store
	TRANSB_A1
	TRANSB_TAIL1(BX, Y14)
	TRANSB_TAIL1(R11, Y15)
	ADDQ  $4, AX
	ADDQ  $4, BX
	ADDQ  $4, R11
	DECQ  R10
	JMP   tb8k1

tb8store:
	TRANSB_STORE(0, X14, Y14)
	TRANSB_STORE(16, X15, Y15)
	ADDQ $32, DI
	LEAQ (DX)(R8*8), DX
	SUBQ $8, R9
	JMP  tb8

tb4:
	CMPQ   R9, $4
	JLT    tbdone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   CX, R10

tb4k4:
	CMPQ        R10, $4
	JLT         tb4reduce
	VMOVUPS     (AX), X8
	VINSERTF128 $1, (AX)(R14*1), Y8, Y8
	TRANSB_GROUP4(BX, Y0, Y1, Y2, Y3)
	ADDQ        $16, AX
	ADDQ        $16, BX
	SUBQ        $4, R10
	JMP         tb4k4

tb4reduce:
	TRANSB_REDUCE4(Y0, Y1, Y2, Y3, Y14)

tb4k1:
	TESTQ R10, R10
	JZ    tb4store
	TRANSB_A1
	TRANSB_TAIL1(BX, Y14)
	ADDQ  $4, AX
	ADDQ  $4, BX
	DECQ  R10
	JMP   tb4k1

tb4store:
	TRANSB_STORE(0, X14, Y14)

tbdone:
	VZEROUPPER
	RET

// The elementwise kernels of elementwise.go: n is a positive multiple
// of eight, taken 32 lanes at a time and then 8. Every lane computes
// what the portable loop computes for its element. A block's loads all
// precede its stores, so dst may be one of the sources.

// func reluAVX2(dst, src *float32, mask *byte, n int)
// dst[i] = src[i] <= 0 ? +0 : src[i]. The compare is "not less-or-
// equal", true on unordered operands, so a NaN keeps its bits (VMAXPS
// would replace it); ANDing with the mask makes every cleared lane +0.
// A non-nil mask gets the compare's sign bits (VMOVMSKPS), a byte per
// eight elements: bit i%8 of byte i/8 is set where element i passed.
TEXT ·reluAVX2(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   mask+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPS Y15, Y15, Y15

relu32:
	CMPQ      CX, $32
	JLT       relu8
	VMOVUPS   0(SI), Y0
	VMOVUPS   32(SI), Y1
	VMOVUPS   64(SI), Y2
	VMOVUPS   96(SI), Y3
	VCMPPS    $0x16, Y15, Y0, Y4
	VCMPPS    $0x16, Y15, Y1, Y5
	VCMPPS    $0x16, Y15, Y2, Y6
	VCMPPS    $0x16, Y15, Y3, Y7
	VANDPS    Y4, Y0, Y0
	VANDPS    Y5, Y1, Y1
	VANDPS    Y6, Y2, Y2
	VANDPS    Y7, Y3, Y3
	VMOVUPS   Y0, 0(DI)
	VMOVUPS   Y1, 32(DI)
	VMOVUPS   Y2, 64(DI)
	VMOVUPS   Y3, 96(DI)
	ADDQ      $128, SI
	ADDQ      $128, DI
	SUBQ      $32, CX
	TESTQ     DX, DX
	JZ        relu32
	VMOVMSKPS Y4, AX
	MOVB      AX, 0(DX)
	VMOVMSKPS Y5, AX
	MOVB      AX, 1(DX)
	VMOVMSKPS Y6, AX
	MOVB      AX, 2(DX)
	VMOVMSKPS Y7, AX
	MOVB      AX, 3(DX)
	ADDQ      $4, DX
	JMP       relu32

relu8:
	TESTQ     CX, CX
	JZ        reludone
	VMOVUPS   (SI), Y0
	VCMPPS    $0x16, Y15, Y0, Y4
	VANDPS    Y4, Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	TESTQ     DX, DX
	JZ        relu8
	VMOVMSKPS Y4, AX
	MOVB      AX, (DX)
	INCQ      DX
	JMP       relu8

reludone:
	VZEROUPPER
	RET

// Lane j holds 1<<j: the bit of a mask byte that lane j reads.
DATA relubits<>+0(SB)/8, $0x0000000200000001
DATA relubits<>+8(SB)/8, $0x0000000800000004
DATA relubits<>+16(SB)/8, $0x0000002000000010
DATA relubits<>+24(SB)/8, $0x0000008000000040
GLOBL relubits<>(SB), RODATA, $32

// func reluBackwardAVX2(dst, grad *float32, mask *byte, n int)
// dst[i] = grad[i] where bit i%8 of mask byte i/8 (reluAVX2's layout) is
// set, +0 elsewhere: a mask byte in every lane, ANDed with the lane's
// own bit and compared with it, is all ones exactly where that bit is.
TEXT ·reluBackwardAVX2(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    grad+8(FP), SI
	MOVQ    mask+16(FP), DX
	MOVQ    n+24(FP), CX
	VMOVDQU relubits<>(SB), Y15

rback32:
	CMPQ         CX, $32
	JLT          rback8
	VPBROADCASTD (DX), Y0
	VPSRLD       $8, Y0, Y1
	VPSRLD       $16, Y0, Y2
	VPSRLD       $24, Y0, Y3
	VPAND        Y15, Y0, Y0
	VPAND        Y15, Y1, Y1
	VPAND        Y15, Y2, Y2
	VPAND        Y15, Y3, Y3
	VPCMPEQD     Y15, Y0, Y0
	VPCMPEQD     Y15, Y1, Y1
	VPCMPEQD     Y15, Y2, Y2
	VPCMPEQD     Y15, Y3, Y3
	VANDPS       0(SI), Y0, Y0
	VANDPS       32(SI), Y1, Y1
	VANDPS       64(SI), Y2, Y2
	VANDPS       96(SI), Y3, Y3
	VMOVUPS      Y0, 0(DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	ADDQ         $4, DX
	ADDQ         $128, SI
	ADDQ         $128, DI
	SUBQ         $32, CX
	JMP          rback32

rback8:
	TESTQ        CX, CX
	JZ           rbackdone
	MOVBLZX      (DX), AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0
	VPAND        Y15, Y0, Y0
	VPCMPEQD     Y15, Y0, Y0
	VANDPS       (SI), Y0, Y0
	VMOVUPS      Y0, (DI)
	INCQ         DX
	ADDQ         $32, SI
	ADDQ         $32, DI
	SUBQ         $8, CX
	JMP          rback8

rbackdone:
	VZEROUPPER
	RET

// func addAVX2(dst, a, b *float32, n int)
// dst[i] = a[i] + b[i].
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX

add32:
	CMPQ    CX, $32
	JLT     add8
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VADDPS  0(DX), Y0, Y0
	VADDPS  32(DX), Y1, Y1
	VADDPS  64(DX), Y2, Y2
	VADDPS  96(DX), Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     add32

add8:
	TESTQ   CX, CX
	JZ      adddone
	VMOVUPS (SI), Y0
	VADDPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     add8

adddone:
	VZEROUPPER
	RET

// func addScaledAVX2(dst, a, b *float32, s float32, n int)
// dst[i] = a[i] + s·b[i]: VMULPS then VADDPS, each rounded, as the
// portable loop's separate multiply and add are.
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	VBROADCASTSS s+24(FP), Y15
	MOVQ         n+32(FP), CX

axpy32:
	CMPQ    CX, $32
	JLT     axpy8
	VMULPS  0(DX), Y15, Y4
	VMULPS  32(DX), Y15, Y5
	VMULPS  64(DX), Y15, Y6
	VMULPS  96(DX), Y15, Y7
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     axpy32

axpy8:
	TESTQ   CX, CX
	JZ      axpydone
	VMULPS  (DX), Y15, Y4
	VMOVUPS (SI), Y0
	VADDPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     axpy8

axpydone:
	VZEROUPPER
	RET

// func addScaleAVX2(dst, a, b *float32, s float32, n int)
// dst[i] = (a[i] + b[i])·s: VADDPS then VMULPS, each rounded, as the
// portable loop's separate add and multiply are. b nil: dst[i] = a[i]·s.
TEXT ·addScaleAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	VBROADCASTSS s+24(FP), Y15
	MOVQ         n+32(FP), CX

ascale32:
	CMPQ    CX, $32
	JLT     ascale8
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	TESTQ   DX, DX
	JZ      ascalemul32
	VADDPS  0(DX), Y0, Y0
	VADDPS  32(DX), Y1, Y1
	VADDPS  64(DX), Y2, Y2
	VADDPS  96(DX), Y3, Y3
	ADDQ    $128, DX

ascalemul32:
	VMULPS  Y15, Y0, Y0
	VMULPS  Y15, Y1, Y1
	VMULPS  Y15, Y2, Y2
	VMULPS  Y15, Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     ascale32

ascale8:
	TESTQ   CX, CX
	JZ      ascaledone
	VMOVUPS (SI), Y0
	TESTQ   DX, DX
	JZ      ascalemul8
	VADDPS  (DX), Y0, Y0
	ADDQ    $32, DX

ascalemul8:
	VMULPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     ascale8

ascaledone:
	VZEROUPPER
	RET

// Vector tanh and sigmoid (Activate). Their specification is float64
// code: float32(math.Tanh(float64(v))) and float32(1/(1+math.Exp(
// -float64(v)))), and on a host with FMA math.Exp is the avxfma path of
// the toolchain's exp_amd64.s (Shibata's SLEEF exp, written for SIMD
// but with scalar ...SD instructions). EXP4 is that path with ...PD on
// four float64 lanes, one instruction per instruction, fused where it
// fuses: these two bodies are the only FMA in this file because their
// specification is FMA code. They run only where math.Exp takes that
// path (cpuFeatures' fma) and return its bits for every float32.

DATA expc<>+0(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA expc<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA expc<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expc<>+24(SB)/8, $0.0625
DATA expc<>+32(SB)/8, $2.4801587301587301587e-5
DATA expc<>+40(SB)/8, $1.9841269841269841270e-4
DATA expc<>+48(SB)/8, $1.3888888888888888889e-3
DATA expc<>+56(SB)/8, $8.3333333333333333333e-3
DATA expc<>+64(SB)/8, $4.1666666666666666667e-2
DATA expc<>+72(SB)/8, $1.6666666666666666667e-1
DATA expc<>+80(SB)/8, $0.5
DATA expc<>+88(SB)/8, $1.0
DATA expc<>+96(SB)/8, $2.0
DATA expc<>+104(SB)/8, $0x8000000000000000 // the sign bit
DATA expc<>+112(SB)/8, $0.625
DATA expc<>+120(SB)/8, $8.8029691931113054295988e+01 // math.tanh's MAXLOG
DATA expc<>+128(SB)/8, $-9.64399179425052238628e-1 // tanhP
DATA expc<>+136(SB)/8, $-9.92877231001918586564e1
DATA expc<>+144(SB)/8, $-1.61468768441708447952e3
DATA expc<>+152(SB)/8, $1.12811678491632931402e2 // tanhQ
DATA expc<>+160(SB)/8, $2.23548839060100448583e3
DATA expc<>+168(SB)/8, $4.84406305325125486048e3
DATA expc<>+176(SB)/8, $128.0
GLOBL expc<>(SB), RODATA, $184

// p = p·x + the constant at off: one step of archExp's Horner loop.
#define EXP_HORNER(off, x, p, t) \
	VBROADCASTSD expc<>+off(SB), t; \
	VFMADD213PD  t, x, p

// x = exp(x), four lanes, for finite x whose result is a normal number
// (no lane may need archExp's overflow, denormal or not-finite exits:
// the callers clamp). p and t are scratch, nx the low half of ny; Y14
// holds 2.0 and Y15 1.0. The scale 2ⁿ is (n << 52) + bits(1.0), which
// is archExp's (n + 0x3FF) << 52.
#define EXP4(x, p, t, nx, ny) \
	VBROADCASTSD expc<>+0(SB), p; \
	VMULPD       x, p, p; \
	VCVTPD2DQY   p, nx; \
	VCVTDQ2PD    nx, p; \
	VBROADCASTSD expc<>+8(SB), t; \
	VFNMADD231PD t, p, x; \
	VBROADCASTSD expc<>+16(SB), t; \
	VFNMADD231PD t, p, x; \
	VPMOVSXDQ    nx, ny; \
	VPSLLQ       $52, ny, ny; \
	VPADDQ       Y15, ny, ny; \
	VBROADCASTSD expc<>+24(SB), t; \
	VMULPD       t, x, x; \
	VBROADCASTSD expc<>+32(SB), p; \
	EXP_HORNER(40, x, p, t); \
	EXP_HORNER(48, x, p, t); \
	EXP_HORNER(56, x, p, t); \
	EXP_HORNER(64, x, p, t); \
	EXP_HORNER(72, x, p, t); \
	EXP_HORNER(80, x, p, t); \
	VFMADD213PD  Y15, x, p; \
	VMULPD       p, x, x; \
	VADDPD       Y14, x, p; \
	VMULPD       p, x, x; \
	VADDPD       Y14, x, p; \
	VMULPD       p, x, x; \
	VADDPD       Y14, x, p; \
	VMULPD       p, x, x; \
	VADDPD       Y14, x, p; \
	VFMADD213PD  Y15, p, x; \
	VMULPD       ny, x, x

// func tanhAVX2(dst, src *float32, n int)
// n is a positive multiple of four. Both arms of math.tanh are computed
// for every lane and blended. Below 0.625: x + x·s·P(s)/Q(s), each
// multiply, add and divide rounded in the order the Go expression has;
// a NaN fails the compare and leaves through this arm, as x + … does.
// From 0.625: 1 − 2/(exp(2|x|) + 1) with 2|x| clamped to MAXLOG, which
// moves only NaN lanes and those past math.tanh's 0.5·MAXLOG, where the
// answer is 1 — and 2/(exp(MAXLOG) + 1) is under 2⁻⁵³, so the clamped
// lane is exactly 1 with no third arm. x's sign bit is ORed back last:
// every arm has x's sign, and ±0, which the scalar code returns before
// computing, gets it.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD expc<>+88(SB), Y15
	VBROADCASTSD expc<>+96(SB), Y14
	VBROADCASTSD expc<>+104(SB), Y13
	VBROADCASTSD expc<>+120(SB), Y12
	VBROADCASTSD expc<>+112(SB), Y11

tanh4:
	VCVTPS2PD    (SI), Y0
	VANDNPD      Y0, Y13, Y1
	VCMPPD       $0x1D, Y11, Y1, Y8
	VADDPD       Y1, Y1, Y1
	VMINPD       Y12, Y1, Y1
	EXP4(Y1, Y2, Y3, X4, Y4)
	VADDPD       Y15, Y1, Y1
	VDIVPD       Y1, Y14, Y1
	VSUBPD       Y1, Y15, Y1
	VMULPD       Y0, Y0, Y5
	VBROADCASTSD expc<>+128(SB), Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD expc<>+136(SB), Y3
	VADDPD       Y3, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD expc<>+144(SB), Y3
	VADDPD       Y3, Y6, Y6
	VBROADCASTSD expc<>+152(SB), Y7
	VADDPD       Y7, Y5, Y7
	VMULPD       Y5, Y7, Y7
	VBROADCASTSD expc<>+160(SB), Y3
	VADDPD       Y3, Y7, Y7
	VMULPD       Y5, Y7, Y7
	VBROADCASTSD expc<>+168(SB), Y3
	VADDPD       Y3, Y7, Y7
	VMULPD       Y5, Y0, Y5
	VMULPD       Y6, Y5, Y5
	VDIVPD       Y7, Y5, Y5
	VADDPD       Y5, Y0, Y5
	VBLENDVPD    Y8, Y1, Y5, Y5
	VANDPD       Y13, Y0, Y0
	VORPD        Y0, Y5, Y5
	VCVTPD2PSY   Y5, X5
	VMOVUPS      X5, (DI)
	ADDQ         $16, SI
	ADDQ         $16, DI
	SUBQ         $4, CX
	JNZ          tanh4
	VZEROUPPER
	RET

// func sigmoidAVX2(dst, src *float32, n int)
// n is a positive multiple of four. a = -x is clamped to ±128 for the
// exp: below -128 exp(a) is under 2⁻⁵³ and 1 + exp(a) is 1 either way,
// above 128 the quotient is under half the smallest float32 and rounds
// to +0 either way, so archExp's overflow, denormal and underflow
// exits, and its ±Inf cases, end in the bits the clamped lanes get. A
// NaN lane is replaced by a itself, which is what 1/(1 + NaN) returns.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD expc<>+88(SB), Y15
	VBROADCASTSD expc<>+96(SB), Y14
	VBROADCASTSD expc<>+104(SB), Y13
	VBROADCASTSD expc<>+176(SB), Y12
	VXORPD       Y13, Y12, Y11

sigmoid4:
	VCVTPS2PD  (SI), Y0
	VXORPD     Y13, Y0, Y0
	VMINPD     Y12, Y0, Y1
	VMAXPD     Y11, Y1, Y1
	EXP4(Y1, Y2, Y3, X4, Y4)
	VADDPD     Y15, Y1, Y1
	VDIVPD     Y1, Y15, Y1
	VCMPPD     $3, Y0, Y0, Y5
	VBLENDVPD  Y5, Y0, Y1, Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    X1, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	SUBQ       $4, CX
	JNZ        sigmoid4
	VZEROUPPER
	RET

// The convolution row kernel (conv.go). One call computes the leading
// cols columns (a multiple of four) of one output row, vectorised along
// the row: the eight, then four, adjacent outputs of a block read
// adjacent floats of the padded input row and share each broadcast
// weight. Per output the taps are accumulated as convImageGo writes it:
// groups of eight summed left to right then added to the accumulator,
// then single steps, then the channel's bias. SI addresses the block's
// first input float, R11 the tap table (element offsets from SI), BX
// the weights of the next tap (R8 bytes apart), R10 counts the taps left.

#define CONV_LOAD(i, x) \
	MOVQ    (i*8)(R11), AX; \
	VMOVUPS (SI)(AX*4), x

// Four adjacent output channels share the input vector x: t_j = x·w_j
// (MUL) or t_j += x·w_j (MAC) for the four weights at BX.
#define CONV4_MUL(x, b0, b1, b2, b3, t0, t1, t2, t3) \
	VBROADCASTSS 0(BX), b0; \
	VMULPS       b0, x, t0; \
	VBROADCASTSS 4(BX), b1; \
	VMULPS       b1, x, t1; \
	VBROADCASTSS 8(BX), b2; \
	VMULPS       b2, x, t2; \
	VBROADCASTSS 12(BX), b3; \
	VMULPS       b3, x, t3; \
	ADDQ         R8, BX

#define CONV4_MAC(x, b0, b1, b2, b3, t0, t1, t2, t3) \
	VBROADCASTSS 0(BX), b0; \
	VMULPS       b0, x, b0; \
	VADDPS       b0, t0, t0; \
	VBROADCASTSS 4(BX), b1; \
	VMULPS       b1, x, b1; \
	VADDPS       b1, t1, t1; \
	VBROADCASTSS 8(BX), b2; \
	VMULPS       b2, x, b2; \
	VADDPS       b2, t2, t2; \
	VBROADCASTSS 12(BX), b3; \
	VMULPS       b3, x, b3; \
	VADDPS       b3, t3, t3; \
	ADDQ         R8, BX

#define CONV4_GROUP8(x, b0, b1, b2, b3, t0, t1, t2, t3, a0, a1, a2, a3) \
	CONV_LOAD(0, x); \
	CONV4_MUL(x, b0, b1, b2, b3, t0, t1, t2, t3); \
	CONV_LOAD(1, x); \
	CONV4_MAC(x, b0, b1, b2, b3, t0, t1, t2, t3); \
	CONV_LOAD(2, x); \
	CONV4_MAC(x, b0, b1, b2, b3, t0, t1, t2, t3); \
	CONV_LOAD(3, x); \
	CONV4_MAC(x, b0, b1, b2, b3, t0, t1, t2, t3); \
	CONV_LOAD(4, x); \
	CONV4_MAC(x, b0, b1, b2, b3, t0, t1, t2, t3); \
	CONV_LOAD(5, x); \
	CONV4_MAC(x, b0, b1, b2, b3, t0, t1, t2, t3); \
	CONV_LOAD(6, x); \
	CONV4_MAC(x, b0, b1, b2, b3, t0, t1, t2, t3); \
	CONV_LOAD(7, x); \
	CONV4_MAC(x, b0, b1, b2, b3, t0, t1, t2, t3); \
	VADDPS t0, a0, a0; \
	VADDPS t1, a1, a1; \
	VADDPS t2, a2, a2; \
	VADDPS t3, a3, a3

// One output channel: t = x·w (MUL) or t += x·w (MAC) for the weight at BX.
#define CONV1_MUL(x, b, t) \
	VBROADCASTSS (BX), b; \
	VMULPS       b, x, t; \
	ADDQ         R8, BX

#define CONV1_MAC(x, b, t) \
	VBROADCASTSS (BX), b; \
	VMULPS       b, x, b; \
	VADDPS       b, t, t; \
	ADDQ         R8, BX

#define CONV1_GROUP8(x, b, t, a) \
	CONV_LOAD(0, x); \
	CONV1_MUL(x, b, t); \
	CONV_LOAD(1, x); \
	CONV1_MAC(x, b, t); \
	CONV_LOAD(2, x); \
	CONV1_MAC(x, b, t); \
	CONV_LOAD(3, x); \
	CONV1_MAC(x, b, t); \
	CONV_LOAD(4, x); \
	CONV1_MAC(x, b, t); \
	CONV_LOAD(5, x); \
	CONV1_MAC(x, b, t); \
	CONV_LOAD(6, x); \
	CONV1_MAC(x, b, t); \
	CONV_LOAD(7, x); \
	CONV1_MAC(x, b, t); \
	VADDPS t, a, a

// func convRowAVX2(dst, src, w, bias *float32, taps *int, k, outC, plane, cols, chans int)
// chans = 4: four adjacent output channels at once — four independent
// accumulator chains sharing every input load; their rows are plane
// floats apart in dst, their weights adjacent in w and their biases in
// bias (nil: none). chans = 1: one channel, for those a multiple of four
// leaves over.
TEXT ·convRowAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ k+40(FP), CX
	MOVQ outC+48(FP), R8
	MOVQ plane+56(FP), R13
	MOVQ cols+64(FP), R9
	SHLQ $2, R8
	SHLQ $2, R13
	LEAQ (R13)(R13*2), R12
	CMPQ chans+72(FP), $4
	JNE  conv1col8

conv4col8:
	CMPQ   R9, $8
	JLT    conv4col4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   taps+32(FP), R11
	MOVQ   DX, BX
	MOVQ   CX, R10

conv4col8k8:
	CMPQ R10, $8
	JLT  conv4col8k1
	CONV4_GROUP8(Y8, Y9, Y10, Y11, Y12, Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3)
	ADDQ $64, R11
	SUBQ $8, R10
	JMP  conv4col8k8

conv4col8k1:
	TESTQ R10, R10
	JZ    conv4col8store
	CONV_LOAD(0, Y8)
	CONV4_MAC(Y8, Y9, Y10, Y11, Y12, Y0, Y1, Y2, Y3)
	ADDQ  $8, R11
	DECQ  R10
	JMP   conv4col8k1

conv4col8store:
	MOVQ         bias+24(FP), AX
	TESTQ        AX, AX
	JZ           conv4col8storenobias
	VBROADCASTSS 0(AX), Y8
	VADDPS       Y8, Y0, Y0
	VBROADCASTSS 4(AX), Y9
	VADDPS       Y9, Y1, Y1
	VBROADCASTSS 8(AX), Y10
	VADDPS       Y10, Y2, Y2
	VBROADCASTSS 12(AX), Y11
	VADDPS       Y11, Y3, Y3

conv4col8storenobias:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R13*1)
	VMOVUPS Y2, (DI)(R13*2)
	VMOVUPS Y3, (DI)(R12*1)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, R9
	JMP     conv4col8

conv4col4:
	CMPQ   R9, $4
	JLT    conv4done
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	MOVQ   taps+32(FP), R11
	MOVQ   DX, BX
	MOVQ   CX, R10

conv4col4k8:
	CMPQ R10, $8
	JLT  conv4col4k1
	CONV4_GROUP8(X8, X9, X10, X11, X12, X4, X5, X6, X7, X0, X1, X2, X3)
	ADDQ $64, R11
	SUBQ $8, R10
	JMP  conv4col4k8

conv4col4k1:
	TESTQ R10, R10
	JZ    conv4col4store
	CONV_LOAD(0, X8)
	CONV4_MAC(X8, X9, X10, X11, X12, X0, X1, X2, X3)
	ADDQ  $8, R11
	DECQ  R10
	JMP   conv4col4k1

conv4col4store:
	MOVQ         bias+24(FP), AX
	TESTQ        AX, AX
	JZ           conv4col4storenobias
	VBROADCASTSS 0(AX), X8
	VADDPS       X8, X0, X0
	VBROADCASTSS 4(AX), X9
	VADDPS       X9, X1, X1
	VBROADCASTSS 8(AX), X10
	VADDPS       X10, X2, X2
	VBROADCASTSS 12(AX), X11
	VADDPS       X11, X3, X3

conv4col4storenobias:
	VMOVUPS X0, (DI)
	VMOVUPS X1, (DI)(R13*1)
	VMOVUPS X2, (DI)(R13*2)
	VMOVUPS X3, (DI)(R12*1)

conv4done:
	VZEROUPPER
	RET

conv1col8:
	CMPQ   R9, $8
	JLT    conv1col4
	VXORPS Y0, Y0, Y0
	MOVQ   taps+32(FP), R11
	MOVQ   DX, BX
	MOVQ   CX, R10

conv1col8k8:
	CMPQ R10, $8
	JLT  conv1col8k1
	CONV1_GROUP8(Y8, Y9, Y4, Y0)
	ADDQ $64, R11
	SUBQ $8, R10
	JMP  conv1col8k8

conv1col8k1:
	TESTQ R10, R10
	JZ    conv1col8store
	CONV_LOAD(0, Y8)
	CONV1_MAC(Y8, Y9, Y0)
	ADDQ  $8, R11
	DECQ  R10
	JMP   conv1col8k1

conv1col8store:
	MOVQ         bias+24(FP), AX
	TESTQ        AX, AX
	JZ           conv1col8storenobias
	VBROADCASTSS (AX), Y8
	VADDPS       Y8, Y0, Y0

conv1col8storenobias:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, R9
	JMP     conv1col8

conv1col4:
	CMPQ   R9, $4
	JLT    conv1done
	VXORPS X0, X0, X0
	MOVQ   taps+32(FP), R11
	MOVQ   DX, BX
	MOVQ   CX, R10

conv1col4k8:
	CMPQ R10, $8
	JLT  conv1col4k1
	CONV1_GROUP8(X8, X9, X4, X0)
	ADDQ $64, R11
	SUBQ $8, R10
	JMP  conv1col4k8

conv1col4k1:
	TESTQ R10, R10
	JZ    conv1col4store
	CONV_LOAD(0, X8)
	CONV1_MAC(X8, X9, X0)
	ADDQ  $8, R11
	DECQ  R10
	JMP   conv1col4k1

conv1col4store:
	MOVQ         bias+24(FP), AX
	TESTQ        AX, AX
	JZ           conv1col4storenobias
	VBROADCASTSS (AX), X8
	VADDPS       X8, X0, X0

conv1col4storenobias:
	VMOVUPS X0, (DI)

conv1done:
	VZEROUPPER
	RET
