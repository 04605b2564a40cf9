package server

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"

	"gridvo/internal/trust"
)

// decodeTrustDelta decodes a trust-delta body read in full, given the
// error that ended the read (nil at a clean EOF). A body of the
// canonical shape goes through parseTrustDelta. Any other body, and any
// body whose read failed, is replayed — its bytes, then the read error —
// through encoding/json's Decoder into a zero request, so every outcome
// (value, error message, oversized-body error) is the one decoding the
// body as a stream gives.
func decodeTrustDelta(body []byte, readErr error, req *TrustDeltaRequest) error {
	if readErr == nil && parseTrustDelta(body, req) {
		return nil
	}
	*req = TrustDeltaRequest{}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		// Reads from a pipe whose writer closed with readErr fail with
		// it; CloseWithError always returns nil.
		pr, pw := io.Pipe()
		_ = pw.CloseWithError(readErr)
		src = io.MultiReader(src, pr)
	}
	return json.NewDecoder(src).Decode(req)
}

// parseTrustDelta decodes b in one pass if it is exactly one JSON object
// in the shape json.Marshal gives a TrustDeltaRequest: any JSON
// whitespace, the exact field names (each at most once for "edges"),
// integer literals for the int fields, numbers for the float fields,
// true or false for the bools, null or an array of {"from","to","weight"}
// objects for "edges", and nothing but whitespace after the object. The
// result is then the one encoding/json gives, floats bit for bit,
// because every number goes through the strconv call encoding/json
// makes. At the first byte outside that shape it reports false and
// leaves req partly written.
func parseTrustDelta(b []byte, req *TrustDeltaRequest) bool {
	p := deltaParser{b: b}
	if !p.consume('{') {
		return false
	}
	if !p.consume('}') {
		seenEdges := false
		for {
			key, ok := p.key()
			if !ok {
				return false
			}
			switch string(key) {
			case "n":
				ok = p.int(&req.N)
			case "edges":
				// A second "edges" would decode into the first one's
				// backing array; leave that to encoding/json.
				ok = !seenEdges && p.edges(&req.Edges)
				seenEdges = true
			case "epsilon":
				ok = p.float(&req.Epsilon)
			case "max_iter":
				ok = p.int(&req.MaxIter)
			case "damping":
				ok = p.float(&req.Damping)
			case "solve":
				ok = p.bool(&req.Solve)
			case "include_scores":
				ok = p.bool(&req.IncludeScores)
			default:
				return false
			}
			if !ok {
				return false
			}
			if p.consume('}') {
				break
			}
			if !p.consume(',') {
				return false
			}
		}
	}
	p.skipSpace()
	return p.i == len(p.b)
}

// deltaParser is parseTrustDelta's cursor over the body.
type deltaParser struct {
	b []byte
	i int
}

// skipSpace advances past JSON whitespace.
func (p *deltaParser) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume advances past whitespace and then c, if c comes next.
func (p *deltaParser) consume(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal advances past whitespace and then lit, if lit comes next.
func (p *deltaParser) literal(lit string) bool {
	p.skipSpace()
	if len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// key reads an object key and the colon after it. The key comes back
// raw: callers accept only exact field names, so a key with an escape
// (or any name encoding/json would match only by case folding) never
// matches.
func (p *deltaParser) key() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(p.b[p.i:], '"')
	if n < 0 {
		return nil, false
	}
	k := p.b[p.i : p.i+n]
	p.i += n + 1
	return k, p.consume(':')
}

// edges reads the "edges" value: null, which leaves dst nil as
// encoding/json does, or an array of edge objects, which leaves dst
// non-nil even when empty.
func (p *deltaParser) edges(dst *[]trust.DeltaOp) bool {
	if p.literal("null") {
		*dst = nil
		return true
	}
	if !p.consume('[') {
		return false
	}
	// A marshalled edge takes at least 28 bytes and its comma, so this
	// capacity holds every edge of a canonical body in one allocation.
	ops := make([]trust.DeltaOp, 0, (len(p.b)-p.i)/29+1)
	if p.consume(']') {
		*dst = ops
		return true
	}
	for {
		var op trust.DeltaOp
		if !p.edge(&op) {
			return false
		}
		ops = append(ops, op)
		if p.consume(']') {
			*dst = ops
			return true
		}
		if !p.consume(',') {
			return false
		}
	}
}

// edge reads one {"from","to","weight"} object into op; a repeated key
// overwrites, as in encoding/json.
func (p *deltaParser) edge(op *trust.DeltaOp) bool {
	if !p.consume('{') {
		return false
	}
	if p.consume('}') {
		return true
	}
	for {
		key, ok := p.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "from":
			ok = p.int(&op.From)
		case "to":
			ok = p.int(&op.To)
		case "weight":
			ok = p.float(&op.Weight)
		default:
			return false
		}
		if !ok {
			return false
		}
		if p.consume('}') {
			return true
		}
		if !p.consume(',') {
			return false
		}
	}
}

// number scans one literal of the JSON number grammar and reports
// whether it is an integer literal (no fraction, no exponent).
func (p *deltaParser) number() (lit []byte, integer, ok bool) {
	p.skipSpace()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return nil, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return nil, false, false
		}
	}
	lit, p.i = b[p.i:i], i
	return lit, integer, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int reads an integer literal into dst with strconv.Atoi, which is
// strconv.ParseInt at the int size (with a fast path for short
// literals), as encoding/json parses it; a literal that overflows int
// fails.
func (p *deltaParser) int(dst *int) bool {
	lit, integer, ok := p.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.Atoi(string(lit))
	*dst = n
	return err == nil
}

// float reads a number into dst with encoding/json's strconv.ParseFloat
// call, so the bits match; a literal out of float64's range fails.
func (p *deltaParser) float(dst *float64) bool {
	lit, _, ok := p.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

// bool reads true or false into dst.
func (p *deltaParser) bool(dst *bool) bool {
	switch {
	case p.literal("true"):
		*dst = true
	case p.literal("false"):
		*dst = false
	default:
		return false
	}
	return true
}
