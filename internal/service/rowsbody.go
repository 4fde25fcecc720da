package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// decodeRowsBody reads and decodes a POST rows body,
// {"site": n, "rows": [[x, ...], ...]}. Site, when present and not null,
// is the explicit origin site (the caller is the site, per the paper's
// model); absent, the session's assigner deals rows out.
//
// It accepts exactly the bodies decodeBody accepts for
//
//	struct {
//		Site *int        `json:"site"`
//		Rows [][]float64 `json:"rows"`
//	}
//
// with bit-identical site and rows and the same 400/413 split, but in one
// pass: every number is parsed straight into one flat []float64 and the
// rows are views over it, instead of one reflected slice per row. The
// encoding/json decode survives in rowsbody_test.go as the reference the
// fuzzer holds this decoder to.
func decodeRowsBody(w http.ResponseWriter, r *http.Request) (*int, [][]float64, error) {
	data, truncated, err := readCapped(w, r)
	if err != nil {
		return nil, nil, err
	}
	return parseRowsBody(data, truncated)
}

// maxPrealloc bounds the read buffer a claimed Content-Length sizes up
// front, so a client cannot pin 64 MiB by announcing a body it never
// sends; larger bodies grow as their bytes arrive.
const maxPrealloc = 4 << 20

// readCapped reads the request body through the ingest size cap, into a
// buffer sized from Content-Length when the client sent one. A body past
// the cap yields its first maxBodyBytes bytes and truncated=true: that is
// the prefix encoding/json's decoder sees before the cap error, and
// parseRowsBody needs it to tell 413 from 400 the same way.
func readCapped(w http.ResponseWriter, r *http.Request) (data []byte, truncated bool, err error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	size := int64(512)
	if r.ContentLength > 0 {
		// One spare byte, so the read that returns io.EOF needs no growth.
		size = min(r.ContentLength, maxBodyBytes, maxPrealloc) + 1
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, false, nil
		case err != nil:
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return buf, true, nil
			}
			return nil, false, badRequestf("reading body: %v", err)
		}
	}
}

// Parse outcomes other than success. errShort: the input ended inside the
// document — a 413 when the cap cut the body, a 400 otherwise.
// errMismatch: well-formed JSON that does not fit the request (unknown
// field, wrong type, float out of range).
var (
	errShort    = errors.New("unexpected end of JSON input")
	errMismatch = errors.New("body does not fit the rows request")
)

// maxDepth is encoding/json's nesting limit: a 10001st open container is
// a syntax error.
const maxDepth = 10000

// maxReserve caps the float buffer reserved from the first row's size, so
// a short first row ahead of a padded body cannot reserve gigabytes;
// bodies past it grow by append.
const maxReserve = 1 << 20

// parseRowsBody decodes data, the body or (truncated) its first
// maxBodyBytes bytes.
func parseRowsBody(data []byte, truncated bool) (*int, [][]float64, error) {
	p := rowsParser{b: data, truncated: truncated}
	err := p.document()
	if errors.Is(err, errMismatch) {
		// encoding/json reads the whole first value before it decodes a
		// field, so a cut or malformed document outranks a misfit value.
		g := rowsParser{b: data, truncated: truncated}
		if gerr := g.topValue(); gerr != nil {
			err = gerr
		}
	}
	if err == nil {
		err = p.trailing()
	}
	switch {
	case err == nil:
		return p.site, p.rows, nil
	case errors.Is(err, errShort) && truncated:
		return nil, nil, fmt.Errorf("%w: body exceeds %d bytes", errTooLarge, maxBodyBytes)
	default:
		return nil, nil, badRequestf("decoding body: %v", err)
	}
}

// rowsParser is a strict single-pass JSON scanner specialised to the rows
// request. Its grammar checks are encoding/json's scanner's; its decode
// rules are encoding/json's for the reference struct, including the
// duplicate-key ones (see rowsInto).
type rowsParser struct {
	b         []byte
	i         int
	truncated bool // b is a prefix of a longer body

	site *int
	rows [][]float64
}

// document decodes the first JSON value: the request object, or null
// (the zero request).
func (p *rowsParser) document() error {
	if err := p.ws(); err != nil {
		return err
	}
	switch c := p.b[p.i]; {
	case c == '{':
		return p.object()
	case c == 'n':
		if err := p.literal("null"); err != nil {
			return err
		}
		return p.endTop()
	case startsValue(c):
		return fmt.Errorf("%w: body is not a JSON object", errMismatch)
	default:
		return p.syntax("looking for beginning of value")
	}
}

// object decodes the request object at p.i.
func (p *rowsParser) object() error {
	p.i++
	if err := p.ws(); err != nil {
		return err
	}
	if p.b[p.i] == '}' {
		p.i++
		return nil
	}
	for {
		if err := p.ws(); err != nil {
			return err
		}
		if p.b[p.i] != '"' {
			return p.syntax("looking for beginning of object key string")
		}
		start := p.i
		if err := p.str(); err != nil {
			return err
		}
		key := p.b[start+1 : p.i-1]
		if err := p.colon(); err != nil {
			return err
		}
		// encoding/json matches field names exactly, then under Unicode
		// simple case folding: "ROWS" and "rowſ" are both rows.
		var err error
		switch field := jsonKey(key); {
		case bytes.EqualFold(field, []byte("site")):
			err = p.siteValue()
		case bytes.EqualFold(field, []byte("rows")):
			err = p.rowsValue()
		default:
			err = fmt.Errorf("%w: unknown field %q", errMismatch, field)
		}
		if err != nil {
			return err
		}
		if err := p.ws(); err != nil {
			return err
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case '}':
			p.i++
			return nil
		default:
			return p.syntax("after object key:value pair")
		}
	}
}

// siteValue decodes the "site" value at p.i into an *int: null clears it,
// an integer literal in int range sets it.
func (p *rowsParser) siteValue() error {
	switch c := p.b[p.i]; {
	case c == 'n':
		p.site = nil
		return p.literal("null")
	case c == '-' || isDigit(c):
		start := p.i
		if err := p.number(); err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(p.b[start:p.i]), 10, strconv.IntSize)
		if err != nil {
			return fmt.Errorf("%w: site %s is not an int", errMismatch, p.b[start:p.i])
		}
		site := int(n)
		p.site = &site
		return nil
	default:
		return p.misfit("site")
	}
}

// rowsValue decodes the "rows" value at p.i. A repeated key decodes into
// the previous value, as encoding/json does: only an empty previous value
// takes the flat fast path.
func (p *rowsParser) rowsValue() error {
	switch p.b[p.i] {
	case 'n':
		p.rows = nil
		return p.literal("null")
	case '[':
		if cap(p.rows) == 0 {
			return p.flatRows()
		}
		rows, err := p.rowsInto(p.rows)
		p.rows = rows
		return err
	default:
		return p.misfit("rows")
	}
}

// flatRows decodes a rows array into fresh state: every number lands in
// one flat buffer, reserved once the first row's size is known, and each
// row is a capped view of it. Should the buffer still have to grow, the
// earlier views keep the old array, whose values are the same.
func (p *rowsParser) flatRows() error {
	p.i++
	if err := p.ws(); err != nil {
		return err
	}
	if p.b[p.i] == ']' {
		p.i++
		p.rows = [][]float64{}
		return nil
	}
	var (
		flat  []float64
		rows  [][]float64
		sized bool
	)
	for {
		if err := p.ws(); err != nil {
			return err
		}
		switch c := p.b[p.i]; {
		case c == '[':
			start, lo := p.i, len(flat)
			var err error
			if flat, err = p.row(flat); err != nil {
				return err
			}
			switch {
			case lo == len(flat):
				rows = append(rows, []float64{})
			default:
				if !sized {
					// Assume the remaining rows are this one's size, with
					// a quarter to spare for shorter number formatting.
					sized = true
					d, per := len(flat)-lo, p.i-start+1
					more := min((len(p.b)-p.i)/per*5/4+1, maxReserve/d+1)
					flat = slices.Grow(flat, more*d)
					rows = slices.Grow(rows, more)
				}
				rows = append(rows, flat[lo:len(flat):len(flat)])
			}
		case c == 'n':
			if err := p.literal("null"); err != nil {
				return err
			}
			rows = append(rows, nil)
		default:
			return p.misfit("rows element")
		}
		if err := p.ws(); err != nil {
			return err
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case ']':
			p.i++
			p.rows = rows
			return nil
		default:
			return p.syntax("after array element")
		}
	}
}

// row appends the numbers of the row array at p.i to flat — the decode
// hot loop: one strconv.ParseFloat per number over the body bytes in
// place. A null element decodes as 0, as it does into a fresh slice.
//
//distlint:hotpath
func (p *rowsParser) row(flat []float64) ([]float64, error) {
	b, i := p.b, p.i+1
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i < len(b) && b[i] == ']' {
		p.i = i + 1
		return flat, nil
	}
	for {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i == len(b) {
			return flat, errShort
		}
		switch c := b[i]; {
		case c == '-' || isDigit(c):
			end, err := numberEnd(b, i)
			if err != nil {
				p.i = end
				return flat, p.numberErr(err)
			}
			// The token bytes stay put for the call; ParseFloat copies
			// the string into any error it returns.
			v, err := strconv.ParseFloat(unsafe.String(&b[i], end-i), 64)
			if err != nil {
				return flat, rangeErr(err)
			}
			flat = append(flat, v) //distlint:alloc-ok grows only past the first row's estimate
			i = end
		case c == 'n':
			p.i = i
			if err := p.literal("null"); err != nil {
				return flat, err
			}
			flat = append(flat, 0) //distlint:alloc-ok grows only past the first row's estimate
			i = p.i
		default:
			p.i = i
			return flat, p.misfit("row element")
		}
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i == len(b) {
			return flat, errShort
		}
		switch b[i] {
		case ',':
			i++
		case ']':
			p.i = i + 1
			return flat, nil
		default:
			p.i = i
			return flat, p.syntax("after array element")
		}
	}
}

// rangeErr wraps a ParseFloat failure on a grammatical number (±1e400)
// as a mismatch, out of the hot loop.
func rangeErr(err error) error {
	return fmt.Errorf("%w: %w", errMismatch, err)
}

// rowsInto decodes a repeated "rows" value into the previous one the way
// encoding/json's reflective decoder does: element i reuses the slot (and
// row array) at i, slots past the length but within the capacity come
// back into view, a null float leaves the value beneath it, and the
// result is truncated to the elements decoded. Capacities need not match
// encoding/json's: a slot past the length holds a value only if an
// earlier decode wrote it, and then both layouts had room for it, and
// every other spare slot is zero in both.
func (p *rowsParser) rowsInto(s [][]float64) ([][]float64, error) {
	p.i++
	if err := p.ws(); err != nil {
		return s, err
	}
	if p.b[p.i] == ']' {
		p.i++
		return [][]float64{}, nil
	}
	for i := 0; ; i++ {
		if err := p.ws(); err != nil {
			return s, err
		}
		s = grow(s, i)
		switch p.b[p.i] {
		case '[':
			row, err := p.rowInto(s[i])
			s[i] = row
			if err != nil {
				return s, err
			}
		case 'n':
			s[i] = nil
			if err := p.literal("null"); err != nil {
				return s, err
			}
		default:
			return s, p.misfit("rows element")
		}
		if err := p.ws(); err != nil {
			return s, err
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case ']':
			p.i++
			return s[:i+1], nil
		default:
			return s, p.syntax("after array element")
		}
	}
}

// rowInto is rowsInto for one row's floats.
func (p *rowsParser) rowInto(r []float64) ([]float64, error) {
	p.i++
	if err := p.ws(); err != nil {
		return r, err
	}
	if p.b[p.i] == ']' {
		p.i++
		return []float64{}, nil
	}
	for i := 0; ; i++ {
		if err := p.ws(); err != nil {
			return r, err
		}
		r = grow(r, i)
		switch c := p.b[p.i]; {
		case c == '-' || isDigit(c):
			start := p.i
			if err := p.number(); err != nil {
				return r, err
			}
			v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
			if err != nil {
				return r, rangeErr(err)
			}
			r[i] = v
		case c == 'n':
			if err := p.literal("null"); err != nil {
				return r, err
			}
		default:
			return r, p.misfit("row element")
		}
		if err := p.ws(); err != nil {
			return r, err
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case ']':
			p.i++
			return r[:i+1], nil
		default:
			return r, p.syntax("after array element")
		}
	}
}

// grow makes index i addressable the way reflect's Value.Grow(1) and
// SetLen(i+1) do for encoding/json: append a zero at capacity, otherwise
// re-expose the slot already there.
func grow[T any](s []T, i int) []T {
	if i >= cap(s) {
		var zero T
		return append(s, zero)
	}
	if i >= len(s) {
		return s[:i+1]
	}
	return s
}

// trailing mirrors decodeBody's second Decode: after the document only
// whitespace may follow. A tail the cap cut short is a 413 when it is
// whitespace or an unfinished value (the reader hit the cap first), a
// 400 when it already shows a complete value or a syntax error.
func (p *rowsParser) trailing() error {
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
	if p.i == len(p.b) {
		if p.truncated {
			return errShort
		}
		return nil
	}
	if p.truncated {
		if err := p.topValue(); errors.Is(err, errShort) {
			return err
		}
	}
	return errors.New("trailing data after JSON body")
}

// topValue checks the grammar of one top-level value at p.i without
// decoding it.
func (p *rowsParser) topValue() error {
	if err := p.ws(); err != nil {
		return err
	}
	c := p.b[p.i]
	if err := p.skip(0); err != nil {
		return err
	}
	if c != '{' && c != '[' {
		return p.endTop()
	}
	return nil
}

// endTop completes a top-level scalar. encoding/json's scanner only sees
// a number, literal or string end at the byte after it, so one that runs
// up to where the cap cut the body is still unfinished.
func (p *rowsParser) endTop() error {
	if p.i == len(p.b) && p.truncated {
		return errShort
	}
	return nil
}

// skip checks the grammar of the value at p.i, nested in depth open
// containers, and steps over it.
func (p *rowsParser) skip(depth int) error {
	if p.i == len(p.b) {
		return errShort
	}
	switch c := p.b[p.i]; {
	case c == '{' || c == '[':
		if depth++; depth > maxDepth {
			return p.syntax("exceeded max depth")
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		p.i++
		if err := p.ws(); err != nil {
			return err
		}
		if p.b[p.i] == end {
			p.i++
			return nil
		}
		for {
			if err := p.ws(); err != nil {
				return err
			}
			if c == '{' {
				if p.b[p.i] != '"' {
					return p.syntax("looking for beginning of object key string")
				}
				if err := p.str(); err != nil {
					return err
				}
				if err := p.colon(); err != nil {
					return err
				}
			}
			if err := p.skip(depth); err != nil {
				return err
			}
			if err := p.ws(); err != nil {
				return err
			}
			switch p.b[p.i] {
			case ',':
				p.i++
			case end:
				p.i++
				return nil
			default:
				return p.syntax("after container element")
			}
		}
	case c == '"':
		return p.str()
	case c == '-' || isDigit(c):
		return p.number()
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	default:
		return p.syntax("looking for beginning of value")
	}
}

// misfit reports the value at p.i as the wrong type for what — unless it
// is not a value at all, which is a syntax error.
func (p *rowsParser) misfit(what string) error {
	if !startsValue(p.b[p.i]) {
		return p.syntax("looking for beginning of value")
	}
	return fmt.Errorf("%w: %s at offset %d has the wrong type", errMismatch, what, p.i)
}

func (p *rowsParser) syntax(context string) error {
	return fmt.Errorf("invalid character %q %s at offset %d", p.b[p.i], context, p.i)
}

// ws skips whitespace; running out of input there is errShort, because
// every caller needs the byte after it.
func (p *rowsParser) ws() error {
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
	if p.i == len(p.b) {
		return errShort
	}
	return nil
}

// colon steps over the ':' after an object key and the whitespace around
// it, up to the start of the value.
func (p *rowsParser) colon() error {
	if err := p.ws(); err != nil {
		return err
	}
	if p.b[p.i] != ':' {
		return p.syntax("after object key")
	}
	p.i++
	return p.ws()
}

// literal steps over the literal lit (true, false or null) at p.i.
func (p *rowsParser) literal(lit string) error {
	for j := 0; j < len(lit); j++ {
		if p.i == len(p.b) {
			return errShort
		}
		if p.b[p.i] != lit[j] {
			return p.syntax("in literal " + lit)
		}
		p.i++
	}
	return nil
}

// number steps over the JSON number at p.i.
func (p *rowsParser) number() error {
	end, err := numberEnd(p.b, p.i)
	p.i = end
	return p.numberErr(err)
}

// numberErr turns numberEnd's errBadNumber into a syntax error at p.i.
func (p *rowsParser) numberErr(err error) error {
	if errors.Is(err, errBadNumber) {
		return p.syntax("in numeric literal")
	}
	return err
}

// numberEnd returns the end of the JSON number starting at b[i]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. On a grammar error it
// returns the offending offset; running out of input where a digit is
// still due is errShort.
func numberEnd(b []byte, i int) (int, error) {
	if b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return i, errShort
	case b[i] == '0':
		i++
	case isDigit(b[i]):
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		return i, errBadNumber
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) {
			return i, errShort
		}
		if !isDigit(b[i]) {
			return i, errBadNumber
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) {
			return i, errShort
		}
		if !isDigit(b[i]) {
			return i, errBadNumber
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	return i, nil
}

var errBadNumber = errors.New("invalid character in numeric literal")

// str steps over the string at p.i (its opening quote): escapes must be
// JSON's, control bytes are refused, other bytes — invalid UTF-8
// included — pass, as in encoding/json's scanner.
func (p *rowsParser) str() error {
	p.i++
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return nil
		case c < 0x20:
			return p.syntax("in string literal")
		case c == '\\':
			p.i++
			if p.i == len(p.b) {
				return errShort
			}
			switch p.b[p.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.i++
			case 'u':
				p.i++
				for k := 0; k < 4; k++ {
					if p.i == len(p.b) {
						return errShort
					}
					if !isHex(p.b[p.i]) {
						return p.syntax("in \\u hexadecimal character escape")
					}
					p.i++
				}
			default:
				return p.syntax("in string escape code")
			}
		default:
			p.i++
		}
	}
	return errShort
}

// jsonKey returns the key text of a grammatical object key (quotes
// stripped), resolving escapes the way encoding/json does: a \u surrogate
// that does not pair up reads as U+FFFD.
func jsonKey(raw []byte) []byte {
	if bytes.IndexByte(raw, '\\') < 0 {
		return raw
	}
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			out = append(out, raw[i])
			i++
			continue
		}
		switch c := raw[i+1]; c {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := utf8.RuneError
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2:])
				}
				if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
					r = dec
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			out = utf8.AppendRune(out, r)
			continue
		default: // '"', '\\', '/'
			out = append(out, c)
		}
		i += 2
	}
	return out
}

// hex4 decodes the four hex digits that open b.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// startsValue reports whether c can open a JSON value.
func startsValue(c byte) bool {
	return c == '{' || c == '[' || c == '"' || c == '-' || isDigit(c) || c == 't' || c == 'f' || c == 'n'
}
