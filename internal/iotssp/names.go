package iotssp

import (
	"fmt"
	"strconv"
)

// Per-connection device-type name interning. A shard
// connection that negotiated a fingerprint dictionary also interns the
// type names its lines repeat: classify accepts, discriminate
// candidates and scores name the same handful of enrolled types on
// every line, so each direction of the connection keeps a table of the
// names it has sent and ships references after the first use.
//
// Three wire forms, distinguished by the first byte:
//
//	"#k"    — reference: the k-th name defined in this direction
//	"=name" — definition: append name to the table, meaning name
//	"~name" — literal name, not entered into the table (escape form,
//	          used where definition order would be ambiguous — map
//	          keys — or when the table is full)
//
// Any other string is itself a literal (names never start with '#',
// '=' or '~' in practice; the escape form keeps the codec total).
// Definitions are assigned in wire order, so the two ends' tables stay
// in lockstep exactly as the fingerprint dictionaries do: the encoder
// defines in the order it writes lines, the decoder appends in the
// order it reads them, and a connection sever discards both tables.

// maxInternedNames caps one direction's table; names past the cap
// travel as literals. Far above any real catalog — a backstop, not a
// tuning knob.
const maxInternedNames = 1 << 16

// nameEnc is the sending direction's intern table.
type nameEnc struct {
	idx map[string]int
}

// escapeName returns name in a form the decoder reads back literally.
func escapeName(name string) string {
	if len(name) > 0 && (name[0] == '#' || name[0] == '=' || name[0] == '~') {
		return "~" + name
	}
	return name
}

// define returns the wire form of name in a position whose order both
// ends see identically: a reference when the table already holds it,
// otherwise a definition that assigns the next index.
func (e *nameEnc) define(name string) string {
	if e.idx == nil {
		e.idx = make(map[string]int)
	}
	if k, ok := e.idx[name]; ok {
		return "#" + strconv.Itoa(k)
	}
	if len(e.idx) >= maxInternedNames {
		return escapeName(name)
	}
	e.idx[name] = len(e.idx)
	return "=" + name
}

// ref returns a reference when the table holds name and an escaped
// literal otherwise, never defining — the form for positions whose
// visit order differs between the ends (map keys).
func (e *nameEnc) ref(name string) string {
	if k, ok := e.idx[name]; ok {
		return "#" + strconv.Itoa(k)
	}
	return escapeName(name)
}

// nameDec is the receiving direction's table.
type nameDec struct {
	names []string
}

// resolve decodes one wire form. Unknown references are a coherence
// failure, reported as an error for the caller to sever on.
func (d *nameDec) resolve(s string) (string, error) {
	if s == "" {
		return "", nil
	}
	switch s[0] {
	case '#':
		k, err := strconv.Atoi(s[1:])
		if err != nil || k < 0 || k >= len(d.names) {
			return "", fmt.Errorf("iotssp: unknown interned name %q (table holds %d)", s, len(d.names))
		}
		return d.names[k], nil
	case '=':
		name := s[1:]
		if len(d.names) < maxInternedNames {
			d.names = append(d.names, name)
		}
		return name, nil
	case '~':
		return s[1:], nil
	}
	return s, nil
}

// internShardResponse rewrites a shard response's name-bearing fields
// through the response-direction table, in the order the decoder will
// read them: accepts entries left to right, then best, then score keys
// (reference-only — map marshal order is not definition order).
func internShardResponse(resp *shardResponse, enc *nameEnc) {
	if len(resp.Accepts) > 0 {
		accepts := make([][]string, len(resp.Accepts))
		for i, names := range resp.Accepts {
			if len(names) == 0 {
				// Preserve nil-vs-empty: a rejected row must marshal
				// exactly as it would on the plain wire (bit-equal
				// verdicts are the contract).
				accepts[i] = names
				continue
			}
			row := make([]string, len(names))
			for j, name := range names {
				row[j] = enc.define(name)
			}
			accepts[i] = row
		}
		resp.Accepts = accepts
	}
	if resp.Best != "" {
		resp.Best = enc.define(resp.Best)
	}
	if len(resp.Scores) > 0 {
		scores := make(map[string]float64, len(resp.Scores))
		for name, v := range resp.Scores {
			scores[enc.ref(name)] = v
		}
		resp.Scores = scores
	}
}

// expandShardResponse is internShardResponse's inverse, applied by the
// client's read pump in wire order.
func expandShardResponse(resp *shardResponse, dec *nameDec) error {
	for i, names := range resp.Accepts {
		for j, s := range names {
			name, err := dec.resolve(s)
			if err != nil {
				return err
			}
			resp.Accepts[i][j] = name
		}
	}
	if resp.Best != "" {
		best, err := dec.resolve(resp.Best)
		if err != nil {
			return err
		}
		resp.Best = best
	}
	if len(resp.Scores) > 0 {
		scores := make(map[string]float64, len(resp.Scores))
		for s, v := range resp.Scores {
			name, err := dec.resolve(s)
			if err != nil {
				return err
			}
			scores[name] = v
		}
		resp.Scores = scores
	}
	return nil
}

// internCandidates rewrites a discriminate request's candidate list
// without committing new definitions: it returns the wire forms plus
// the names to append to the table once the request line is known to
// ship (the encoder contract — no state mutation for output that is
// never written).
func internCandidates(candidates []string, idx map[string]int) (wire, defined []string) {
	wire = make([]string, len(candidates))
	next := len(idx)
	pending := make(map[string]int)
	for i, name := range candidates {
		if k, ok := idx[name]; ok {
			wire[i] = "#" + strconv.Itoa(k)
			continue
		}
		if k, ok := pending[name]; ok {
			wire[i] = "#" + strconv.Itoa(k)
			continue
		}
		if next >= maxInternedNames {
			wire[i] = escapeName(name)
			continue
		}
		pending[name] = next
		next++
		wire[i] = "=" + name
		defined = append(defined, name)
	}
	return wire, defined
}

// expandCandidates resolves a discriminate request's candidate list on
// the server's read pump.
func expandCandidates(candidates []string, dec *nameDec) error {
	for i, s := range candidates {
		name, err := dec.resolve(s)
		if err != nil {
			return err
		}
		candidates[i] = name
	}
	return nil
}
