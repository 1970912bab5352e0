package topo

import (
	"math/bits"
	"strings"
)

// MaxCores is the largest machine a CoreMask covers; Spec.Validate
// rejects larger ones.
const MaxCores = 256

// CoreMask is a CPU bitmask, as used in mm_cpumask and in the CPU-list
// field of a LATR state. It supports machines up to MaxCores cores, which
// covers both evaluation machines with room to spare. The words are
// unexported so that a mask can only be read through its methods: len() or
// range on a mask does not compile.
type CoreMask struct{ w [MaxCores / 64]uint64 }

// MaskOf builds a mask from the listed cores.
func MaskOf(cores ...CoreID) CoreMask {
	var m CoreMask
	for _, c := range cores {
		m.Set(c)
	}
	return m
}

// Set adds core c to the mask.
func (m *CoreMask) Set(c CoreID) { m.w[int(c)>>6] |= 1 << (uint(c) & 63) }

// Clear removes core c from the mask.
func (m *CoreMask) Clear(c CoreID) { m.w[int(c)>>6] &^= 1 << (uint(c) & 63) }

// Has reports whether core c is in the mask.
func (m CoreMask) Has(c CoreID) bool { return m.w[int(c)>>6]&(1<<(uint(c)&63)) != 0 }

// Empty reports whether no cores are set.
func (m CoreMask) Empty() bool { return m.w[0]|m.w[1]|m.w[2]|m.w[3] == 0 }

// Count returns the number of set cores.
func (m CoreMask) Count() int {
	return bits.OnesCount64(m.w[0]) + bits.OnesCount64(m.w[1]) +
		bits.OnesCount64(m.w[2]) + bits.OnesCount64(m.w[3])
}

// Or returns the union of two masks.
func (m CoreMask) Or(o CoreMask) CoreMask {
	return CoreMask{[4]uint64{m.w[0] | o.w[0], m.w[1] | o.w[1], m.w[2] | o.w[2], m.w[3] | o.w[3]}}
}

// AndNot returns m with the cores of o removed.
func (m CoreMask) AndNot(o CoreMask) CoreMask {
	return CoreMask{[4]uint64{m.w[0] &^ o.w[0], m.w[1] &^ o.w[1], m.w[2] &^ o.w[2], m.w[3] &^ o.w[3]}}
}

// And returns the intersection of two masks.
func (m CoreMask) And(o CoreMask) CoreMask {
	return CoreMask{[4]uint64{m.w[0] & o.w[0], m.w[1] & o.w[1], m.w[2] & o.w[2], m.w[3] & o.w[3]}}
}

// ForEach calls fn for every set core in ascending order.
func (m CoreMask) ForEach(fn func(CoreID)) {
	for w := 0; w < 4; w++ {
		v := m.w[w]
		for v != 0 {
			b := bits.TrailingZeros64(v)
			fn(CoreID(w*64 + b))
			v &^= 1 << uint(b)
		}
	}
}

// Cores returns the set cores in ascending order.
func (m CoreMask) Cores() []CoreID {
	out := make([]CoreID, 0, m.Count())
	m.ForEach(func(c CoreID) { out = append(out, c) })
	return out
}

// String renders the mask as a comma-separated core list, e.g. "{1,3,7}".
func (m CoreMask) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	m.ForEach(func(c CoreID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		writeInt(&b, int(c))
	})
	b.WriteByte('}')
	return b.String()
}

func writeInt(b *strings.Builder, v int) {
	if v >= 10 {
		writeInt(b, v/10)
	}
	b.WriteByte(byte('0' + v%10))
}
