package cq

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads a conjunctive query in Datalog-style syntax:
//
//	Q(x, y) :- R(x, y), S(y, z).
//
// The head lists the free variables (possibly empty: "Q() :- R(x)." is a
// Boolean query); every other body variable is existentially quantified.
// Variable and relation names are identifiers: a letter or underscore
// followed by letters, digits, underscores or primes ('). The trailing
// period is optional. Parse validates the query (see Query.Validate).
func Parse(text string) (*Query, error) {
	p := &parser{src: text}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("parsing %q: %w", text, err)
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("parsing %q: %w", text, err)
	}
	return q, nil
}

// MustParse is Parse but panics on error; intended for tests, examples and
// package-level query constants.
func MustParse(text string) *Query {
	q, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	src string
	pos int
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	name, err := p.ident()
	if err != nil {
		return nil, fmt.Errorf("query name: %w", err)
	}
	q.Name = name
	head, err := p.argList()
	if err != nil {
		return nil, fmt.Errorf("head of %s: %w", name, err)
	}
	q.Head = head
	if err := p.expect(":-"); err != nil {
		return nil, err
	}
	for {
		rel, err := p.ident()
		if err != nil {
			return nil, fmt.Errorf("atom: %w", err)
		}
		args, err := p.argList()
		if err != nil {
			return nil, fmt.Errorf("atom %s: %w", rel, err)
		}
		if len(args) == 0 {
			return nil, fmt.Errorf("atom %s has no arguments", rel)
		}
		q.Atoms = append(q.Atoms, Atom{Rel: rel, Args: args})
		p.skipSpace()
		if !p.eat(",") {
			break
		}
	}
	p.skipSpace()
	p.eat(".") // optional
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("unexpected trailing input at offset %d: %q", p.pos, p.rest())
	}
	return q, nil
}

func (p *parser) rest() string {
	r := p.src[p.pos:]
	if len(r) > 20 {
		r = r[:20] + "…"
	}
	return r
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		r, n := utf8.DecodeRuneInString(p.src[p.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		p.pos += n
	}
}

func (p *parser) eat(tok string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *parser) expect(tok string) error {
	if !p.eat(tok) {
		return fmt.Errorf("expected %q at offset %d, found %q", tok, p.pos, p.rest())
	}
	return nil
}

// IsIdentStart and IsIdentPart are the identifier rule of the query
// syntax, over the runes of UTF-8 text: a letter or underscore, then
// letters, digits, underscores or primes. The update-stream parser
// (internal/stream) checks relation names by the same two functions, so
// a relation a query names is one an update line can name; a byte that
// is not valid UTF-8 decodes to utf8.RuneError, which is neither.
func IsIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

// IsIdentPart: see IsIdentStart.
func IsIdentPart(r rune) bool {
	return r == '_' || r == '\'' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (p *parser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		r, n := utf8.DecodeRuneInString(p.src[p.pos:])
		if p.pos == start && !IsIdentStart(r) || p.pos > start && !IsIdentPart(r) {
			break
		}
		p.pos += n
	}
	if p.pos == start {
		return "", fmt.Errorf("expected identifier at offset %d, found %q", p.pos, p.rest())
	}
	return p.src[start:p.pos], nil
}

// argList parses "(" [ident {"," ident}] ")".
func (p *parser) argList() ([]string, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var args []string
	p.skipSpace()
	if p.eat(")") {
		return args, nil
	}
	for {
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		args = append(args, v)
		p.skipSpace()
		if p.eat(")") {
			return args, nil
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
	}
}
