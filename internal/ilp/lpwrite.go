package ilp

import (
	"io"
	"strconv"
	"unicode/utf8"
)

// lpSafe marks the ASCII bytes that may appear verbatim in an LP name;
// every other rune is written as a single '_'.
var lpSafe = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '.'
	}
	return t
}()

// appendLPSafe appends s with every rune outside [A-Za-z0-9_.] replaced
// by one '_'. Invalid UTF-8 decodes one byte at a time, so each such
// byte becomes its own '_'. Runs of safe bytes, most of a mapping
// model's names, are copied whole.
func appendLPSafe(buf []byte, s string) []byte {
	for {
		i := 0
		for i < len(s) && s[i] < utf8.RuneSelf && lpSafe[s[i]] {
			i++
		}
		buf = append(buf, s[:i]...)
		if i == len(s) {
			return buf
		}
		w := 1
		if s[i] >= utf8.RuneSelf {
			_, w = utf8.DecodeRuneInString(s[i:])
		}
		buf = append(buf, '_')
		s = s[i+w:]
	}
}

// lpNames holds every variable's LP name, sanitised once per WriteLP
// call: the name of v is buf[off[v]:off[v+1]]. A name is the sanitised
// diagnostic name plus "_v<index>", which keeps names unique after
// sanitisation.
type lpNames struct {
	buf []byte
	off []int
}

// lpNames builds the name table in two allocations sized up front. The
// parts of a composite name are sanitised separately: they are joined
// by ASCII separators, which no UTF-8 sequence spans, so the result
// equals sanitising the formatted name.
func (m *Model) lpNames() lpNames {
	// An upper bound: the index width is the widest one, and a
	// multi-byte rune shrinks to one byte.
	size := len(m.names) * (len("_v") + decimalLen(len(m.names)))
	for i := range m.names {
		n := &m.names[i]
		size += len(n.prefix)
		if n.a != "" || n.b != "" {
			size += len(n.a) + len(n.b) + len("[,]")
			if n.k >= 0 {
				size += 1 + decimalLen(int(n.k))
			}
		}
	}
	ns := lpNames{buf: make([]byte, 0, size), off: make([]int, len(m.names)+1)}
	for i := range m.names {
		n := &m.names[i]
		b := appendLPSafe(ns.buf, n.prefix)
		if n.a != "" || n.b != "" {
			b = append(b, '_')
			b = appendLPSafe(b, n.a)
			b = append(b, '_')
			b = appendLPSafe(b, n.b)
			if n.k >= 0 {
				b = append(b, '_')
				b = strconv.AppendInt(b, int64(n.k), 10)
			}
			b = append(b, '_')
		}
		b = append(b, "_v"...)
		ns.buf = strconv.AppendInt(b, int64(i), 10)
		ns.off[i+1] = len(ns.buf)
	}
	return ns
}

// decimalLen returns the number of digits of x >= 0.
func decimalLen(x int) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// appendName appends the LP name of v. A variable the model never
// declared is named as VarName names it, "x<index>", sanitised.
func (ns *lpNames) appendName(buf []byte, v Var) []byte {
	if int(v) >= 0 && int(v) < len(ns.off)-1 {
		return append(buf, ns.buf[ns.off[v]:ns.off[v+1]]...)
	}
	buf = append(buf, 'x')
	start := len(buf)
	buf = strconv.AppendInt(buf, int64(v), 10)
	if buf[start] == '-' {
		buf[start] = '_'
	}
	buf = append(buf, "_v"...)
	return strconv.AppendInt(buf, int64(v), 10)
}

// lpChunk is the size at which WriteLP hands its buffer to the writer.
const lpChunk = 64 << 10

// lpWriter accumulates LP text in one reused buffer and passes it to w
// in chunks of about lpChunk bytes, keeping the first write error.
type lpWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (lw *lpWriter) flush() {
	if lw.err == nil && len(lw.buf) > 0 {
		n, err := lw.w.Write(lw.buf)
		if err == nil && n < len(lw.buf) {
			err = io.ErrShortWrite
		}
		lw.err = err
	}
	lw.buf = lw.buf[:0]
}

// WriteLP serialises the model in the CPLEX LP file format, so that
// formulations can be inspected or handed to an external solver (the
// paper used Gurobi, which reads this format).
func (m *Model) WriteLP(w io.Writer) error {
	ns := m.lpNames()
	lw := lpWriter{w: w, buf: make([]byte, 0, lpChunk+4<<10)}
	b := append(lw.buf, `\ Model: `...)
	b = append(b, m.Name...)
	b = append(b, " ("...)
	b = strconv.AppendInt(b, int64(m.NumVars()), 10)
	b = append(b, " binaries, "...)
	b = strconv.AppendInt(b, int64(len(m.Constraints)), 10)
	b = append(b, " constraints)\nMinimize\n obj:"...)
	if len(m.Objective) == 0 {
		b = append(b, " 0"...)
		if m.NumVars() > 0 {
			// LP format needs at least one variable reference.
			b = append(b, ' ')
			b = ns.appendName(b, 0)
			b = append(b, " - "...)
			b = ns.appendName(b, 0)
		}
	}
	lw.buf = b
	lw.writeTerms(&ns, m.Objective)
	lw.buf = append(lw.buf, "\nSubject To\n"...)
	for i := range m.Constraints {
		c := &m.Constraints[i]
		lw.buf = append(lw.buf, " c"...)
		lw.buf = strconv.AppendInt(lw.buf, int64(i), 10)
		lw.buf = append(lw.buf, ':')
		lw.writeTerms(&ns, c.Terms)
		if len(c.Terms) == 0 {
			lw.buf = append(lw.buf, " 0"...)
		}
		lw.buf = append(lw.buf, ' ')
		lw.buf = append(lw.buf, c.Rel.String()...)
		lw.buf = append(lw.buf, ' ')
		lw.buf = strconv.AppendInt(lw.buf, int64(c.RHS), 10)
		lw.buf = append(lw.buf, '\n')
		if len(lw.buf) >= lpChunk {
			lw.flush()
		}
	}
	lw.buf = append(lw.buf, "Binary\n"...)
	for v := 0; v < m.NumVars(); v++ {
		lw.buf = append(lw.buf, ' ')
		lw.buf = ns.appendName(lw.buf, Var(v))
		lw.buf = append(lw.buf, '\n')
		if len(lw.buf) >= lpChunk {
			lw.flush()
		}
	}
	lw.buf = append(lw.buf, "End\n"...)
	lw.flush()
	return lw.err
}

// writeTerms appends " + name", " - name" or " ± coef name" per term,
// flushing whenever the buffer reaches lpChunk.
func (lw *lpWriter) writeTerms(ns *lpNames, terms []Term) {
	b := lw.buf
	for _, t := range terms {
		switch {
		case t.Coef == 1:
			b = append(b, " + "...)
		case t.Coef == -1:
			b = append(b, " - "...)
		case t.Coef < 0:
			b = append(b, " - "...)
			b = strconv.AppendInt(b, int64(-t.Coef), 10)
			b = append(b, ' ')
		default:
			b = append(b, " + "...)
			b = strconv.AppendInt(b, int64(t.Coef), 10)
			b = append(b, ' ')
		}
		b = ns.appendName(b, t.Var)
		if len(b) >= lpChunk {
			lw.buf = b
			lw.flush()
			b = lw.buf
		}
	}
	lw.buf = b
}
