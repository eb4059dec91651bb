package kernel

import (
	"math"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
)

// A dense matrix multiply written in Cyclops assembly — the linear-algebra
// member of the Section 5 application trio exercised at the instruction
// level: parallel FMA loops over quad-shared FPUs with row partitioning
// across worker threads, verified against a Go reference.
const gemmSrc = `
	.equ N, 16		; N x N doubles
	.equ NW, 4		; worker threads

_start:	; spawn workers 1..NW-1; main is worker 0
	li   r8, 1
	li   r9, NW
spawn:	li   a0, 3
	la   a1, worker
	mov  a2, r8
	syscall
	addi r8, r8, 1
	blt  r8, r9, spawn
	li   a0, 0
	j    worker

worker:	mov  r30, a0		; worker index
	; rows [index*N/NW, (index+1)*N/NW)
	li   r9, N/NW
	mul  r10, r30, r9	; first row
	add  r11, r10, r9	; limit row
rowlp:	li   r12, 0		; column j
collp:	; c[i][j] = sum_k a[i][k]*b[k][j]
	la   r13, amat
	li   r14, N*8
	mul  r15, r10, r14
	add  r13, r13, r15	; &a[i][0]
	la   r16, bmat
	slli r17, r12, 3
	add  r16, r16, r17	; &b[0][j]
	li   r18, N		; k counter
	fsub d32, d32, d32	; acc = 0
dotlp:	ld   d34, 0(r13)
	ld   d36, 0(r16)
	fma  d32, d34, d36, d32
	addi r13, r13, 8
	add  r16, r16, r14
	addi r18, r18, -1
	bne  r18, r0, dotlp
	; store c[i][j]
	la   r19, cmat
	mul  r20, r10, r14
	add  r19, r19, r20
	add  r19, r19, r17
	sd   d32, 0(r19)
	addi r12, r12, 1
	li   r21, N
	blt  r12, r21, collp
	addi r10, r10, 1
	blt  r10, r11, rowlp
	li   a0, 0
	syscall

	.align 64
amat:	.space N*N*8
bmat:	.space N*N*8
cmat:	.space N*N*8
`

func TestAsmGEMMMatchesGo(t *testing.T) {
	p, err := asm.Assemble(gemmSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	chip := core.MustNew(arch.Default())
	k := New(chip)
	k.Machine().MaxCycles = 50_000_000

	// Fill A and B with a deterministic pattern before boot.
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%5)*0.5 - 1
	}
	if err := k.Boot(p); err != nil {
		t.Fatal(err)
	}
	wr := func(base uint32, m []float64) {
		for i, v := range m {
			if err := chip.Mem.Write64(base+uint32(8*i), math.Float64bits(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	wr(p.Symbols["amat"], a)
	wr(p.Symbols["bmat"], b)

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	// Reference product.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want float64
			for kk := 0; kk < n; kk++ {
				want += a[i*n+kk] * b[kk*n+j]
			}
			bits, err := chip.Mem.Read64(p.Symbols["cmat"] + uint32(8*(i*n+j)))
			if err != nil {
				t.Fatal(err)
			}
			got := math.Float64frombits(bits)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("c[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
	}

	// All four workers computed.
	busy := 0
	for tid := range k.Machine().Chip.Cfg.Threads {
		tu := k.Machine().Unit(tid)
		if tu.Insts > 100 {
			busy++
		}
	}
	if busy != 4 {
		t.Errorf("%d busy threads, want 4", busy)
	}
}
