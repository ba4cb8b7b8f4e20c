package cq

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a full CQ from text in the conventional comma-separated
// atom syntax, e.g.
//
//	E(x,y), E(y,z), R(z, 42)
//
// Identifiers starting with a letter or underscore are variables;
// (signed) integer literals are constants. Relation names follow the
// same identifier syntax. Whitespace is insignificant. A trailing
// period, as in Datalog bodies, is permitted. A query of more than
// maxAtoms atoms or maxVars distinct variables is refused.
func Parse(input string) (*Query, error) {
	p := &parser{src: input}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("cq: parse error at offset %d: %w", p.pos, err)
	}
	return q, nil
}

// MustParse is Parse but panics on error; for tests and fixed queries.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

// maxAtoms and maxVars bound the queries Parse accepts, and with it every
// text path: the HTTP endpoints, the coordinator and the CLI. Planning
// runs before an execution takes a context, so no timeout or client
// disconnect stops it, and its time grows steeply with the query size:
// hundreds of atoms plan for seconds, thousands for minutes. The queries
// of the figures, examples, tests and benchmark workloads stay far below.
const (
	maxAtoms = 64
	maxVars  = 64
)

type parser struct {
	src string
	pos int
}

func (p *parser) parseQuery() (*Query, error) {
	var atoms []Atom
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		atom, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		if len(atoms) == maxAtoms {
			return nil, fmt.Errorf("query has more than %d atoms", maxAtoms)
		}
		atoms = append(atoms, atom)
		p.skipSpace()
		switch {
		case p.eof():
		case p.peek() == ',':
			p.pos++
			continue
		case p.peek() == '.':
			p.pos++
			p.skipSpace()
			if !p.eof() {
				return nil, fmt.Errorf("trailing input after %q", ".")
			}
		default:
			return nil, fmt.Errorf("expected ',' or end of input, got %q", p.peek())
		}
		break
	}
	q := New(atoms...)
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if tooManyVars(atoms) {
		return nil, fmt.Errorf("query has more than %d distinct variables", maxVars)
	}
	return q, nil
}

// tooManyVars reports whether atoms hold more than maxVars distinct
// variables. It allocates nothing, so the bound costs a served query no
// heap object.
func tooManyVars(atoms []Atom) bool {
	var seen [maxVars]string
	n := 0
	for _, a := range atoms {
		for _, t := range a.Args {
			if !t.IsVar() || slices.Contains(seen[:n], t.Var) {
				continue
			}
			if n == maxVars {
				return true
			}
			seen[n] = t.Var
			n++
		}
	}
	return false
}

func (p *parser) parseAtom() (Atom, error) {
	rel, err := p.parseIdent()
	if err != nil {
		return Atom{}, fmt.Errorf("relation name: %w", err)
	}
	p.skipSpace()
	if p.eof() || p.peek() != '(' {
		return Atom{}, fmt.Errorf("expected '(' after relation %q", rel)
	}
	p.pos++
	var args []Term
	for {
		p.skipSpace()
		term, err := p.parseTerm()
		if err != nil {
			return Atom{}, fmt.Errorf("atom %s: %w", rel, err)
		}
		args = append(args, term)
		p.skipSpace()
		if p.eof() {
			return Atom{}, fmt.Errorf("atom %s: unterminated argument list", rel)
		}
		switch p.peek() {
		case ',':
			p.pos++
		case ')':
			p.pos++
			return Atom{Rel: rel, Args: args}, nil
		default:
			return Atom{}, fmt.Errorf("atom %s: expected ',' or ')', got %q", rel, p.peek())
		}
	}
}

func (p *parser) parseTerm() (Term, error) {
	if p.eof() {
		return Term{}, fmt.Errorf("expected term, got end of input")
	}
	c := p.peek()
	switch {
	case c == '-' || c == '+' || unicode.IsDigit(rune(c)):
		start := p.pos
		p.pos++
		for !p.eof() && unicode.IsDigit(rune(p.peek())) {
			p.pos++
		}
		lit := p.src[start:p.pos]
		v, err := strconv.ParseInt(lit, 10, 64)
		if err != nil {
			return Term{}, fmt.Errorf("bad integer literal %q", lit)
		}
		return C(v), nil
	case isIdentStart(c):
		name, err := p.parseIdent()
		if err != nil {
			return Term{}, err
		}
		return V(name), nil
	default:
		return Term{}, fmt.Errorf("expected variable or integer, got %q", c)
	}
}

func (p *parser) parseIdent() (string, error) {
	p.skipSpace()
	if p.eof() || !isIdentStart(p.peek()) {
		return "", fmt.Errorf("expected identifier")
	}
	start := p.pos
	p.pos++
	for !p.eof() && isIdentPart(p.peek()) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

func (p *parser) skipSpace() {
	for !p.eof() && strings.ContainsRune(" \t\r\n", rune(p.peek())) {
		p.pos++
	}
}

func (p *parser) peek() byte { return p.src[p.pos] }
func (p *parser) eof() bool  { return p.pos >= len(p.src) }

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}
