package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"cyclops/internal/arch"
)

// pagedTestConfig is a memory of four banks of a page and a half: six pages
// in all, and a working size that ends in the middle of a page after one
// bank failure and on a page boundary after two.
func pagedTestConfig() arch.Config {
	cfg := arch.Default()
	cfg.MemBanks = 4
	cfg.MemBankBytes = pageSize * 3 / 2
	return cfg
}

// flatMem is the reference the paged store is held against: the flat array
// functional memory used to be, with the same range check against the
// working size and the same code watch.
type flatMem struct {
	data             []byte
	size, bank       uint32
	failed           map[int]bool
	watchLo, watchHi uint32
	watchSet         bool
	gen              uint64
	written          map[uint32]bool // pages a successful write has touched
}

func newFlatMem(cfg arch.Config) *flatMem {
	size := cfg.MemBytes()
	return &flatMem{
		data:    make([]byte, size),
		size:    uint32(size),
		bank:    uint32(cfg.MemBankBytes),
		failed:  map[int]bool{},
		written: map[uint32]bool{},
	}
}

// check is the range check; a nil error means [addr, addr+n) is in range.
func (f *flatMem) check(addr uint32, n int) error {
	if uint64(addr)+uint64(n) > uint64(f.size) {
		return fmt.Errorf("mem: address %#x beyond working memory %#x", max(addr, f.size), f.size)
	}
	return nil
}

func (f *flatMem) read(addr uint32, p []byte) error {
	if err := f.check(addr, len(p)); err != nil {
		return err
	}
	copy(p, f.data[addr:])
	return nil
}

func (f *flatMem) write(addr uint32, p []byte) error {
	if err := f.check(addr, len(p)); err != nil {
		return err
	}
	if f.watchSet && addr < f.watchHi && uint64(addr)+uint64(len(p)) > uint64(f.watchLo) {
		f.gen++
	}
	copy(f.data[addr:], p)
	for pg := addr >> pageShift; len(p) > 0 && pg <= (addr+uint32(len(p))-1)>>pageShift; pg++ {
		f.written[pg] = true
	}
	return nil
}

func (f *flatMem) failBank(pb, banks int) error {
	if pb < 0 || pb >= banks || f.failed[pb] {
		return fmt.Errorf("no such live bank")
	}
	f.failed[pb] = true
	f.size -= f.bank
	return nil
}

func (f *flatMem) watchCode(lo, hi uint32) {
	if !f.watchSet {
		f.watchLo, f.watchHi, f.watchSet = lo, hi, true
		return
	}
	f.watchLo, f.watchHi = min(lo, f.watchLo), max(hi, f.watchHi)
}

// opStream decodes a script of memory operations from arbitrary bytes, so
// the seeded property test and the fuzzer drive one interpreter.
type opStream struct{ b []byte }

func (s *opStream) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

func (s *opStream) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

// length is a byte count for Read and Write: mostly under 250, a few longer
// than a page.
func (s *opStream) length() int {
	n := int(s.byte())
	if n >= 250 {
		n = (n - 249) * 5000
	}
	return n
}

// addr picks an address within 128 bytes of an edge — a page boundary, the
// current or the full working size, either end of the address space — or,
// one time in eight, anywhere up to just past the full size.
func (s *opStream) addr(size, full uint32) uint32 {
	anchors := [...]uint32{0, pageSize, 2 * pageSize, 3 * pageSize, 5 * pageSize, size, full}
	sel := int(s.byte()) % (len(anchors) + 1)
	if sel == len(anchors) {
		return uint32(s.u64() % uint64(full+64))
	}
	return anchors[sel] + uint32(int32(int8(s.byte())))
}

// checkAgainstFlat runs the script on a paged Memory and on the flat
// reference and requires the same values, errors and code generation after
// every operation, and at the end the same contents and host storage behind
// exactly the pages a successful write touched.
func checkAgainstFlat(t *testing.T, script []byte) {
	t.Helper()
	cfg := pagedTestConfig()
	m, ref := New(cfg), newFlatMem(cfg)
	full := ref.size
	s := opStream{script}
	sameErr := func(what string, addr uint32, got, want error) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("%s at %#x (size %#x): error %v, reference %v", what, addr, ref.size, got, want)
		}
	}
	for len(s.b) > 0 {
		op := s.byte()
		switch {
		case op%64 == 0:
			pb := int(s.byte()) % (cfg.MemBanks + 1)
			got, want := m.FailBank(pb), ref.failBank(pb, cfg.MemBanks)
			if (got == nil) != (want == nil) || m.Size() != ref.size {
				t.Fatalf("FailBank(%d): %v and size %#x, reference %v and %#x", pb, got, m.Size(), want, ref.size)
			}
		case op%64 == 1:
			lo := s.addr(ref.size, full)
			hi := lo + uint32(s.byte())
			m.WatchCode(lo, hi)
			ref.watchCode(lo, hi)
		default:
			addr := s.addr(ref.size, full)
			switch op % 6 {
			case 0:
				n := s.length()
				got, want := bytes.Repeat([]byte{0xa5}, n), bytes.Repeat([]byte{0xa5}, n)
				sameErr("Read", addr, m.Read(addr, got), ref.read(addr, want))
				if !bytes.Equal(got, want) {
					t.Fatalf("Read of %d at %#x differs from the reference", n, addr)
				}
			case 1:
				p := make([]byte, s.length())
				for i := range p {
					p[i] = byte(i) + op
				}
				sameErr("Write", addr, m.Write(addr, p), ref.write(addr, p))
			case 2:
				var b [4]byte
				want := ref.read(addr, b[:])
				got, err := m.Read32(addr)
				sameErr("Read32", addr, err, want)
				if got != binary.LittleEndian.Uint32(b[:]) {
					t.Fatalf("Read32 at %#x = %#x, reference %#x", addr, got, binary.LittleEndian.Uint32(b[:]))
				}
			case 3:
				v := uint32(s.u64())
				sameErr("Write32", addr, m.Write32(addr, v), ref.write(addr, binary.LittleEndian.AppendUint32(nil, v)))
			case 4:
				var b [8]byte
				want := ref.read(addr, b[:])
				got, err := m.Read64(addr)
				sameErr("Read64", addr, err, want)
				if got != binary.LittleEndian.Uint64(b[:]) {
					t.Fatalf("Read64 at %#x = %#x, reference %#x", addr, got, binary.LittleEndian.Uint64(b[:]))
				}
			case 5:
				v := s.u64()
				sameErr("Write64", addr, m.Write64(addr, v), ref.write(addr, binary.LittleEndian.AppendUint64(nil, v)))
			}
		}
		if m.CodeGen() != ref.gen {
			t.Fatalf("after op %#x: code generation %d, reference %d", op, m.CodeGen(), ref.gen)
		}
	}
	got := make([]byte, ref.size)
	if err := m.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.data[:ref.size]) {
		t.Fatal("final contents differ from the reference")
	}
	if want := len(ref.written) * pageSize; m.BackedBytes() != want {
		t.Fatalf("BackedBytes = %d, but successful writes touched %d pages (%d B)", m.BackedBytes(), len(ref.written), want)
	}
}

// TestPagedMemoryMatchesFlatModel: any mix of the six accessors — aligned
// or not, inside a page, across a page boundary, across the working size,
// before and after bank failures, with a code watch set — behaves as the
// flat array did, and only successful writes allocate.
func TestPagedMemoryMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	script := make([]byte, 2048)
	for i := 0; i < 300; i++ {
		rng.Read(script)
		checkAgainstFlat(t, script)
	}
}

func FuzzPagedMemory(f *testing.F) {
	f.Add([]byte{})
	// A doubleword written across the first page boundary and read back.
	f.Add([]byte{5, 1, 0xfc, 1, 2, 3, 4, 5, 6, 7, 8, 4, 1, 0xfc})
	// Watch, fail a bank, then write and read across the new working size.
	f.Add([]byte{1, 0, 0, 64, 0, 2, 1, 5, 0xfe, 9, 9, 9, 0, 5, 0xfe, 16})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		script := make([]byte, 512)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { checkAgainstFlat(t, script) })
}

// TestPageEdges pins the arms only an unusual access reaches: a word or
// doubleword that straddles two pages, a read of a page nothing has
// written, and a failed access, which must not allocate.
func TestPageEdges(t *testing.T) {
	m := New(pagedTestConfig())

	// Reads of unbacked memory are zeros and allocate nothing.
	if v, err := m.Read64(pageSize - 4); err != nil || v != 0 {
		t.Errorf("unbacked straddling Read64 = %#x, %v", v, err)
	}
	if v, err := m.Read32(8); err != nil || v != 0 {
		t.Errorf("unbacked Read32 = %#x, %v", v, err)
	}
	if v, err := m.Read64(8); err != nil || v != 0 {
		t.Errorf("unbacked Read64 = %#x, %v", v, err)
	}
	buf := bytes.Repeat([]byte{0xff}, 3*pageSize)
	if err := m.Read(100, buf); err != nil || !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Errorf("unbacked Read did not zero its buffer: %v", err)
	}
	if m.BackedBytes() != 0 {
		t.Fatalf("reads backed %d B", m.BackedBytes())
	}

	// Failed accesses, in range of the table but not of the working size,
	// allocate nothing either.
	if err := m.FailBank(3); err != nil {
		t.Fatal(err)
	}
	size := m.Size() // mid-page
	for _, err := range []error{
		m.Write64(size-4, 1), m.Write32(size-2, 1), m.Write(size-1, []byte{1, 2}),
		m.Write64(size, 1), m.Write32(size+pageSize, 1), m.Write(0, make([]byte, size+1)),
	} {
		if err == nil {
			t.Error("a write past the working size succeeded")
		}
	}
	if m.BackedBytes() != 0 {
		t.Fatalf("failed writes backed %d B", m.BackedBytes())
	}

	// Straddling words: pages 0|1 for the doubleword, 1|2 for the word.
	if err := m.Write64(pageSize-3, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if err := m.Write32(2*pageSize-1, 0xa1b2c3d4); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(pageSize - 3); v != 0x1122334455667788 {
		t.Errorf("straddling doubleword reads %#x", v)
	}
	if v, _ := m.Read32(2*pageSize - 1); v != 0xa1b2c3d4 {
		t.Errorf("straddling word reads %#x", v)
	}
	// Little-endian across the boundary: the low three bytes end page 0.
	if v, _ := m.Read32(pageSize - 4); v != 0x66778800 {
		t.Errorf("last word of page 0 = %#x, want the doubleword's low bytes", v)
	}
	if v, _ := m.Read32(pageSize); v != 0x22334455 {
		t.Errorf("first word of page 1 = %#x, want the doubleword's middle bytes", v)
	}
	if m.BackedBytes() != 3*pageSize {
		t.Errorf("BackedBytes = %d, want the three pages written", m.BackedBytes())
	}
}

// TestWriteImageAcrossPages: core.Chip.LoadImage is one Write, and a
// program image can be longer than a page and start anywhere in one.
func TestWriteImageAcrossPages(t *testing.T) {
	m := New(pagedTestConfig())
	image := make([]byte, 2*pageSize+pageSize/2)
	for i := range image {
		image[i] = byte(i*7 + i>>8)
	}
	const origin = pageSize - 20
	if err := m.Write(origin, image); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(image))
	if err := m.Read(origin, got); err != nil || !bytes.Equal(got, image) {
		t.Fatalf("image does not read back: %v", err)
	}
	for _, off := range []uint32{0, 16, 20, pageSize, 2 * pageSize, uint32(len(image)) - 4} {
		if v, err := m.Read32(origin + off); err != nil || v != binary.LittleEndian.Uint32(image[off:]) {
			t.Errorf("word %d of the image reads %#x, %v", off, v, err)
		}
	}
	if m.BackedBytes() != 4*pageSize {
		t.Errorf("BackedBytes = %d, want the four pages the image covers", m.BackedBytes())
	}
}
