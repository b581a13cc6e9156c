package engine

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the JSON wire decoder for the re-rank request types: one
// hand-written pass over the body, shared by the HTTP replica and the fleet
// router. Its contract is json.Unmarshal into the same Go value — the two
// accept exactly the same bodies and leave the same value behind — and
// FuzzDecodeRerankJSON holds it to that with encoding/json as the oracle.
// The corners that contract pins, each of which a hand-written parser gets
// wrong by default:
//
//   - keys match case-insensitively under Unicode simple folding, after
//     unescaping, so "USER_FEATURES", a Kelvin sign for "k" and a long s
//     for "s" all match;
//   - null leaves a number, string or object alone and sets a slice to nil;
//     an empty array gives a non-nil empty slice; a null array element
//     keeps the element's previous value;
//   - a repeated key decodes into the value already there: array elements
//     are reused, and members the later object omits keep their values;
//   - numbers must fit their field: an id rejects fractions, exponents and
//     int64 overflow, and a float past ±MaxFloat64 is refused;
//   - members the request does not know, and values of the wrong type, are
//     still checked in full;
//   - invalid UTF-8 in a string decodes to U+FFFD;
//   - nothing but whitespace may follow the top-level value.

// maxDepth is encoding/json's nesting limit: deeper bodies are a syntax
// error there, so they are one here.
const maxDepth = 10000

// BatchRequest is the JSON envelope of a batch re-rank call
// (POST /v1/rerank:batch): independent requests scored together and
// answered in order.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// DecodeRequestJSON decodes a JSON re-rank request body into req, exactly
// as json.Unmarshal(data, req) would.
func DecodeRequestJSON(data []byte, req *Request) error {
	d := decoder{data: data}
	d.request(req, 1)
	return d.finish()
}

// DecodeBatchJSON decodes a JSON batch envelope into b, exactly as
// json.Unmarshal(data, b) would.
func DecodeBatchJSON(data []byte, b *BatchRequest) error {
	d := decoder{data: data}
	d.batch(b, 1)
	return d.finish()
}

// RouteKeyJSON returns the RouteKey of the request a JSON body holds, or,
// when batch is set, the BatchRouteKey of the envelope's members. It
// accepts and refuses exactly the bodies DecodeRequestJSON (DecodeBatchJSON)
// does, type errors included, but materialises only what RouteKey hashes:
// user_features and items[].id. Every other value is checked and skipped,
// so a router refuses any body no replica could serve without building the
// request it holds.
func RouteKeyJSON(data []byte, batch bool) (uint64, error) {
	d := decoder{data: data, keyOnly: true}
	if batch {
		var b BatchRequest
		d.batch(&b, 1)
		if err := d.finish(); err != nil {
			return 0, err
		}
		return BatchRouteKey(b.Requests), nil
	}
	var req Request
	d.request(&req, 1)
	if err := d.finish(); err != nil {
		return 0, err
	}
	return RouteKey(&req), nil
}

// maxPresize is the most of a declared body length ReadBody allocates
// before the bytes arrive. It covers a typical request in one buffer; a
// larger body grows the buffer as it is received, so a client that declares
// a large body and sends nothing holds no more than this.
const maxPresize = 64 << 10

// ReadBody reads a request body whole. size is the declared length (an
// HTTP Content-Length, -1 when none was sent) and limit the most the
// caller's reader will deliver; up to maxPresize, the buffer is allocated
// once at the declared size.
func ReadBody(r io.Reader, size, limit int64) ([]byte, error) {
	n := int64(512)
	if size >= 0 {
		// One spare byte so the read that reports EOF finds room.
		n = min(min(size, limit)+1, maxPresize)
	}
	buf := make([]byte, 0, n)
	for {
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// Field names per wire type, in the order the decoders switch on.
var (
	batchFields   = []string{"requests"}
	requestFields = []string{"user_features", "items", "topic_sequences", "tenant"}
	itemFields    = []string{"id", "features", "cover", "init_score"}
	seqItemFields = []string{"features"}
)

// decoder is one pass over one body. Errors are sticky: the first one is
// kept and the cursor jumps to the end of the input, so every loop up the
// stack ends at its next end-of-input check.
type decoder struct {
	data []byte
	pos  int
	// keyOnly keeps only what RouteKey hashes; every other value is
	// validated into a nil destination.
	keyOnly bool
	err     error
}

// keep returns p, or nil when the decoder keeps route-key fields only.
func keep[T any](d *decoder, p *T) *T {
	if d.keyOnly {
		return nil
	}
	return p
}

func (d *decoder) finish() error {
	if d.err == nil {
		d.ws()
		if d.pos < len(d.data) {
			d.syntax("after top-level value")
		}
	}
	return d.err
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.pos = len(d.data)
}

// syntax fails on the byte under the cursor, or on a truncated body.
func (d *decoder) syntax(context string) {
	if d.pos >= len(d.data) {
		d.fail(errors.New("unexpected end of JSON input"))
		return
	}
	d.fail(fmt.Errorf("invalid character %q %s (offset %d)", d.data[d.pos], context, d.pos))
}

// mismatch fails on a value of the wrong type, or on a byte that starts no
// value at all.
func (d *decoder) mismatch(want string) {
	var got string
	switch c := d.peek(); {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || isDigit(c):
		got = "number"
	default:
		d.syntax("looking for beginning of value")
		return
	}
	d.fail(fmt.Errorf("cannot unmarshal %s into %s (offset %d)", got, want, d.pos))
}

func (d *decoder) ws() {
	i := d.pos
	for i < len(d.data) {
		switch d.data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			d.pos = i
			return
		}
	}
	d.pos = i
}

// peek skips whitespace and returns the byte under the cursor, 0 at the end.
func (d *decoder) peek() byte {
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (d *decoder) at(c byte) bool { return d.pos < len(d.data) && d.data[d.pos] == c }

func (d *decoder) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if !d.at(lit[i]) {
			d.syntax("in literal " + lit)
			return
		}
		d.pos++
	}
}

// open starts a container value with delimiter delim ('[' or '{') at
// nesting depth depth: it consumes the delimiter and returns true, or
// consumes a null and returns false; any other value is an error.
func (d *decoder) open(delim byte, depth int) bool {
	switch d.peek() {
	case delim:
		if depth > maxDepth {
			d.fail(fmt.Errorf("exceeded max nesting depth %d (offset %d)", maxDepth, d.pos))
			return false
		}
		d.pos++
		return true
	case 'n':
		d.literal("null")
	default:
		if delim == '[' {
			d.mismatch("array")
		} else {
			d.mismatch("object")
		}
	}
	return false
}

// next reports whether the container whose opening delimiter was just
// consumed has an element at index i, consuming the separator before it or
// the closing delimiter after the last one.
func (d *decoder) next(i int, close byte) bool {
	c := d.peek()
	if c == close {
		d.pos++
		return false
	}
	if i == 0 {
		return true
	}
	if c == ',' {
		d.pos++
		return true
	}
	d.syntax("after element")
	return false
}

// member advances to the value of member i of the object whose '{' was just
// consumed and returns the index of its key in fields (-1 for a key naming
// none); ok is false after the closing brace.
func (d *decoder) member(i int, fields []string) (field int, ok bool) {
	if !d.next(i, '}') {
		return -1, false
	}
	if d.peek() != '"' {
		d.syntax("looking for beginning of object key string")
		return -1, false
	}
	key := d.str()
	if d.peek() != ':' {
		d.syntax("after object key")
		return -1, false
	}
	d.pos++
	if fields == nil {
		return -1, true
	}
	return matchField(key, fields), true
}

// matchField finds the field a raw (still escaped) key names: an exact
// match first, then a match under Unicode simple folding, which is how
// encoding/json matches keys to struct fields.
func matchField(raw []byte, fields []string) int {
	var kb, fb [64]byte
	key := unquote(kb[:0], raw)
	for i, f := range fields {
		if string(key) == f {
			return i
		}
	}
	folded := appendFolded(fb[:0], key)
	for i, f := range fields {
		if foldedEqualASCII(folded, f) {
			return i
		}
	}
	return -1
}

// appendFolded appends the fold of s: every rune mapped to the smallest
// rune of its simple-fold orbit (ASCII letters to upper case). Two keys
// fold equal exactly when bytes.EqualFold reports them equal.
func appendFolded(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(s[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}

// foldedEqualASCII reports whether folded is the fold of the ASCII field
// name f.
func foldedEqualASCII(folded []byte, f string) bool {
	if len(folded) != len(f) {
		return false
	}
	for i := 0; i < len(f); i++ {
		c := f[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if folded[i] != c {
			return false
		}
	}
	return true
}

// str consumes the string under the cursor and returns its raw, still
// escaped contents.
func (d *decoder) str() []byte {
	d.pos++ // opening quote
	start := d.pos
	for {
		i := d.pos
		for i < len(d.data) && d.data[i] >= ' ' && d.data[i] != '"' && d.data[i] != '\\' {
			i++
		}
		d.pos = i
		switch {
		case i == len(d.data):
			d.syntax("")
			return nil
		case d.data[i] == '"':
			d.pos++
			return d.data[start:i]
		case d.data[i] < ' ':
			d.syntax("in string literal")
			return nil
		}
		// A backslash: one of the single-byte escapes, or \u and four hex
		// digits.
		i++
		switch {
		case i < len(d.data) && d.data[i] == 'u':
			for k := 1; k <= 4; k++ {
				if i+k >= len(d.data) || !isHex(d.data[i+k]) {
					d.pos = i + k
					d.syntax("in \\u hexadecimal character escape")
					return nil
				}
			}
			d.pos = i + 5
		case i < len(d.data) && unescape[d.data[i]] != 0:
			d.pos = i + 1
		default:
			d.pos = i
			d.syntax("in string escape code")
			return nil
		}
	}
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
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

// unescape maps the byte after a backslash to the byte it stands for (0 for
// 'u' and for bytes that are no escape).
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unquote returns the contents of a validated raw string: raw itself when
// it holds no escape and no invalid UTF-8, else the decoded bytes appended
// to dst. Invalid UTF-8 and unpaired surrogate escapes become U+FFFD, one
// per bad byte or escape, as in encoding/json.
func unquote(dst, raw []byte) []byte {
	r := 0
	for r < len(raw) {
		c := raw[r]
		if c == '\\' {
			break
		}
		if c < utf8.RuneSelf {
			r++
			continue
		}
		rr, size := utf8.DecodeRune(raw[r:])
		if rr == utf8.RuneError && size == 1 {
			break
		}
		r += size
	}
	if r == len(raw) {
		return raw
	}
	b := append(dst, raw[:r]...)
	for r < len(raw) {
		c := raw[r]
		switch {
		case c == '\\' && raw[r+1] == 'u':
			rr := hex4(raw[r+2:])
			r += 6
			if utf16.IsSurrogate(rr) {
				if r+6 <= len(raw) && raw[r] == '\\' && raw[r+1] == 'u' {
					if dec := utf16.DecodeRune(rr, hex4(raw[r+2:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						r += 6
						continue
					}
				}
				rr = unicode.ReplacementChar
			}
			b = utf8.AppendRune(b, rr)
		case c == '\\':
			b = append(b, unescape[raw[r+1]])
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			if rr == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, raw[r:r+size]...)
			}
			r += size
		}
	}
	return b
}

// number consumes a number literal and returns it; nil after an error.
func (d *decoder) number() []byte {
	start := d.pos
	if d.at('-') {
		d.pos++
	}
	switch {
	case d.at('0'):
		d.pos++
	case d.pos < len(d.data) && isDigit(d.data[d.pos]):
		d.digits()
	default:
		d.syntax("in numeric literal")
		return nil
	}
	if d.at('.') {
		d.pos++
		if !d.digits() {
			d.syntax("after decimal point in numeric literal")
			return nil
		}
	}
	if d.at('e') || d.at('E') {
		d.pos++
		if d.at('+') || d.at('-') {
			d.pos++
		}
		if !d.digits() {
			d.syntax("in exponent of numeric literal")
			return nil
		}
	}
	return d.data[start:d.pos]
}

func (d *decoder) digits() bool {
	i := d.pos
	for i < len(d.data) && isDigit(d.data[i]) {
		i++
	}
	ok := i > d.pos
	d.pos = i
	return ok
}

// float decodes a number into *dst; null leaves it alone. A nil dst only
// validates: the literal is still parsed, for its range.
func (d *decoder) float(dst *float64) {
	switch c := d.peek(); {
	case c == '-' || isDigit(c):
		start := d.pos
		lit := d.number()
		if lit == nil {
			return
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			d.fail(fmt.Errorf("number %s overflows float64 (offset %d)", lit, start))
			return
		}
		if dst != nil {
			*dst = f
		}
	case c == 'n':
		d.literal("null")
	default:
		d.mismatch("number")
	}
}

// integer decodes a number into *dst; it must be an integer in range.
func (d *decoder) integer(dst *int) {
	switch c := d.peek(); {
	case c == '-' || isDigit(c):
		start := d.pos
		lit := d.number()
		if lit == nil {
			return
		}
		n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
		if err != nil {
			d.fail(fmt.Errorf("cannot unmarshal number %s into an integer (offset %d)", lit, start))
			return
		}
		*dst = int(n)
	case c == 'n':
		d.literal("null")
	default:
		d.mismatch("integer")
	}
}

// text decodes a string into *dst (nil validates only).
func (d *decoder) text(dst *string) {
	switch d.peek() {
	case '"':
		raw := d.str()
		if dst != nil && d.err == nil {
			*dst = string(unquote(nil, raw))
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch("string")
	}
}

// skip validates one value of any shape, nested at depth.
func (d *decoder) skip(depth int) {
	switch c := d.peek(); {
	case c == '{':
		if d.open('{', depth) {
			for i := 0; ; i++ {
				if _, ok := d.member(i, nil); !ok {
					return
				}
				d.skip(depth + 1)
			}
		}
	case c == '[':
		if d.open('[', depth) {
			for i := 0; d.next(i, ']'); i++ {
				d.skip(depth + 1)
			}
		}
	case c == '"':
		d.str()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		d.number()
	default:
		d.syntax("looking for beginning of value")
	}
}

// floats decodes an array of numbers into *p (nil validates only).
func (d *decoder) floats(p *[]float64, depth int) {
	decodeArray(d, p, depth, func(f *float64, _ int) { d.float(f) })
}

// decodeArray decodes an array into *p (nil validates only) with
// encoding/json's slice rules: element i decodes into the element the
// backing array already holds at i (its zero value past the capacity),
// surplus elements are truncated away, null sets the slice to nil and []
// gives a non-nil empty slice.
func decodeArray[T any](d *decoder, p *[]T, depth int, elem func(*T, int)) {
	if !d.open('[', depth) {
		if p != nil {
			*p = nil
		}
		return
	}
	if p == nil {
		for i := 0; d.next(i, ']'); i++ {
			elem(nil, depth+1)
		}
		return
	}
	s := *p
	i := 0
	for ; d.next(i, ']'); i++ {
		switch {
		case i == cap(s):
			grown := make([]T, i+1, max(2*i, 8))
			copy(grown, s)
			s = grown
		case i == len(s):
			s = s[:i+1]
		}
		elem(&s[i], depth+1)
	}
	if i == 0 {
		s = make([]T, 0)
	}
	*p = s[:i]
}

func (d *decoder) batch(b *BatchRequest, depth int) {
	if !d.open('{', depth) {
		return
	}
	for i := 0; ; i++ {
		f, ok := d.member(i, batchFields)
		if !ok {
			return
		}
		if f == 0 {
			decodeArray(d, &b.Requests, depth+1, d.request)
		} else {
			d.skip(depth + 1)
		}
	}
}

func (d *decoder) request(r *Request, depth int) {
	if !d.open('{', depth) {
		return
	}
	for i := 0; ; i++ {
		f, ok := d.member(i, requestFields)
		if !ok {
			return
		}
		switch f {
		case 0:
			d.floats(&r.UserFeatures, depth+1)
		case 1:
			decodeArray(d, &r.Items, depth+1, d.item)
		case 2:
			decodeArray(d, keep(d, &r.TopicSequences), depth+1, d.sequence)
		case 3:
			d.text(keep(d, &r.Tenant))
		default:
			d.skip(depth + 1)
		}
	}
}

func (d *decoder) item(it *Item, depth int) {
	if !d.open('{', depth) {
		return
	}
	for i := 0; ; i++ {
		f, ok := d.member(i, itemFields)
		if !ok {
			return
		}
		switch f {
		case 0:
			d.integer(&it.ID)
		case 1:
			d.floats(keep(d, &it.Features), depth+1)
		case 2:
			d.floats(keep(d, &it.Cover), depth+1)
		case 3:
			d.float(keep(d, &it.InitScore))
		default:
			d.skip(depth + 1)
		}
	}
}

func (d *decoder) sequence(seq *[]SeqItem, depth int) {
	decodeArray(d, seq, depth, d.seqItem)
}

func (d *decoder) seqItem(si *SeqItem, depth int) {
	if !d.open('{', depth) {
		return
	}
	for i := 0; ; i++ {
		f, ok := d.member(i, seqItemFields)
		if !ok {
			return
		}
		if f == 0 {
			var p *[]float64
			if si != nil {
				p = &si.Features
			}
			d.floats(p, depth+1)
		} else {
			d.skip(depth + 1)
		}
	}
}
