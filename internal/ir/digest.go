// Content addresses for loops. Digest hashes a canonical binary form of
// exactly the fields MarshalLoop encodes, so two loops share a digest
// precisely when their wire encodings are byte-identical — without paying
// for the JSON text (shortest-float formatting of every array element
// dominates MarshalLoop; Digest hashes the raw words).
//
// The form, after a format tag: strings and lists are length-prefixed,
// numbers are little-endian 64-bit words, and every statement, destination
// and expression node starts with a one-byte tag naming its type. Two
// normalizations mirror the JSON encoding: every NaN hashes as the quiet
// NaN (jsonF64 writes all of them as "nan"), and each byte of a string that
// is not valid UTF-8 hashes as 0xFF (encoding/json writes each as \ufffd).
// Negative zero keeps its sign bit, as JSON's "-0" does.

package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"unicode/utf8"
)

// digestTag opens every digest; change it whenever the binary form changes.
const digestTag = "fgp.ir.Digest/1"

// Node tags of the binary form.
const (
	tagNil byte = iota // a nil node (MarshalLoop refuses these)
	tagAssign
	tagIf
	tagTempDest
	tagElemDest
	tagConstF
	tagConstI
	tagTemp
	tagLoad
	tagBin
	tagUn
)

// Digest returns the loop's content address: a sha256 over its canonical
// binary form. Digest(a) == Digest(b) exactly when MarshalLoop(a) and
// MarshalLoop(b) are byte-identical.
func Digest(l *Loop) [32]byte {
	d := &digester{h: sha256.New()}
	d.str(digestTag)
	d.str(l.Name)
	d.str(l.Index)
	d.word(uint64(l.Start))
	d.word(uint64(l.End))
	d.word(uint64(l.Step))
	d.word(uint64(len(l.Arrays)))
	for _, a := range l.Arrays {
		d.str(a.Name)
		d.byte(byte(a.K))
		if a.K == F64 {
			d.word(uint64(len(a.InitF)))
			for _, f := range a.InitF {
				d.f64(f)
			}
		} else {
			d.word(uint64(len(a.InitI)))
			for _, v := range a.InitI {
				d.word(uint64(v))
			}
		}
	}
	d.word(uint64(len(l.Scalars)))
	for _, s := range l.Scalars {
		d.str(s.Name)
		d.byte(byte(s.K))
		if s.K == F64 {
			d.f64(s.F)
		} else {
			d.word(uint64(s.I))
		}
	}
	d.stmts(l.Body)
	d.word(uint64(len(l.LiveOut)))
	for _, name := range l.LiveOut {
		d.str(name)
	}
	d.flush()
	var sum [32]byte
	d.h.Sum(sum[:0])
	return sum
}

// digester streams the binary form into the hash through a fixed buffer,
// handing the hash one Write per full buffer.
type digester struct {
	h   hash.Hash
	n   int
	buf [4096]byte
}

func (d *digester) flush() {
	d.h.Write(d.buf[:d.n])
	d.n = 0
}

func (d *digester) byte(b byte) {
	if d.n == len(d.buf) {
		d.flush()
	}
	d.buf[d.n] = b
	d.n++
}

func (d *digester) word(v uint64) {
	if d.n+8 > len(d.buf) {
		d.flush()
	}
	binary.LittleEndian.PutUint64(d.buf[d.n:], v)
	d.n += 8
}

func (d *digester) f64(f float64) {
	if f != f {
		f = math.NaN()
	}
	d.word(math.Float64bits(f))
}

// str writes a length-prefixed string. A string that is not valid UTF-8
// has each invalid byte replaced by 0xFF, which keeps its length and never
// occurs in valid UTF-8.
func (d *digester) str(s string) {
	d.word(uint64(len(s)))
	if !utf8.ValidString(s) {
		b := []byte(s)
		for i := 0; i < len(b); {
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				b[i] = 0xFF
			}
			i += size
		}
		s = string(b)
	}
	for len(s) > 0 {
		if d.n == len(d.buf) {
			d.flush()
		}
		c := copy(d.buf[d.n:], s)
		d.n += c
		s = s[c:]
	}
}

func (d *digester) stmts(stmts []Stmt) {
	d.word(uint64(len(stmts)))
	for _, s := range stmts {
		switch x := s.(type) {
		case *Assign:
			d.byte(tagAssign)
			d.word(uint64(x.Src))
			switch dst := x.Dest.(type) {
			case TempDest:
				d.byte(tagTempDest)
				d.str(dst.Name)
				d.byte(byte(dst.K))
			case *ElemDest:
				d.byte(tagElemDest)
				d.str(dst.Array)
				d.byte(byte(dst.K))
				d.expr(dst.Index)
			default:
				d.byte(tagNil)
			}
			d.expr(x.X)
		case *If:
			d.byte(tagIf)
			d.word(uint64(x.Src))
			d.expr(x.Cond)
			d.stmts(x.Then)
			d.stmts(x.Else)
		default:
			d.byte(tagNil)
		}
	}
}

func (d *digester) expr(e Expr) {
	switch x := e.(type) {
	case ConstF:
		d.byte(tagConstF)
		d.f64(x.V)
	case ConstI:
		d.byte(tagConstI)
		d.word(uint64(x.V))
	case Temp:
		d.byte(tagTemp)
		d.str(x.Name)
		d.byte(byte(x.K))
	case *Load:
		d.byte(tagLoad)
		d.str(x.Array)
		d.byte(byte(x.K))
		d.expr(x.Index)
	case *Bin:
		d.byte(tagBin)
		d.byte(byte(x.Op))
		d.expr(x.L)
		d.expr(x.R)
	case *Un:
		d.byte(tagUn)
		d.byte(byte(x.Op))
		d.expr(x.X)
	default:
		d.byte(tagNil)
	}
}
