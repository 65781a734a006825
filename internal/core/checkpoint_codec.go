package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"corroborate/internal/truth"
)

// The checkpoint codec.
//
// Checkpoints and log records are JSON whose bytes are pinned: a restored
// stream must checkpoint to exactly the bytes the uninterrupted stream
// writes, and every checkpoint this repository's programs have written
// must keep restoring. The codec here reads and writes that JSON in one
// pass over one buffer, without reflection:
//
//   - jsonWriter writes exactly what encoding/json.Marshal writes for the
//     checkpoint types: compact, keys in struct order, omitempty as
//     tagged, strings HTML-escaped, floats in ES6 number form, labels as
//     their text; NaN, ±Inf and invalid labels are errors.
//   - jsonReader accepts exactly what encoding/json with
//     DisallowUnknownFields decodes into those types, to the same values —
//     keys in any order, whitespace anywhere JSON allows it, null leaving a
//     field as it was (a slice nil) — except for three inputs it refuses
//     and the writer never produces: keys that match a field only
//     case-insensitively, repeated keys, and strings holding invalid UTF-8
//     or an unpaired surrogate escape, which encoding/json would rewrite to
//     U+FFFD.
//
// The state's "config" object is fixed: the writer emits streamConfigJSON,
// the reader parses all six of its keys as encoding/json would, and
// validate, which both decoders share, refuses any config but that one.
//
// The encoding/json implementation lives on in checkpoint_oracle_test.go
// as the oracle the differential tests and fuzz targets hold this codec
// to. The wire names below are the types' json tags; TestCodecKeysMatchTags
// keeps the two in step.

var (
	envelopeKeys = []string{"format", "version", "checksum", "state"}
	stateKeys    = []string{"config", "default_trust", "trust_decay", "sources", "decided"}
	configKeys   = []string{"strategy", "initial_trust", "full_groups",
		"flip_delta_h", "soft_absorb", "defer_band"}
	sourceKeys  = []string{"name", "name_b64", "credit", "count", "count_f"}
	factKeys    = []string{"name", "name_b64", "batch", "probability", "prediction"}
	recordKeys  = []string{"batch", "new", "moved", "decided"}
	nameKeys    = []string{"name", "name_b64"}
	accumKeys   = []string{"id", "credit", "count", "count_f"}
	logFactKeys = []string{"name", "name_b64", "probability", "prediction"}
)

// jsonWriter appends compact JSON to b. The first value JSON cannot carry
// sets err, which sticks; the bytes are then incomplete and the caller
// discards them.
type jsonWriter struct {
	b   []byte
	err error
}

func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonWriter) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

func (w *jsonWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// float writes f as encoding/json does: the shortest decimal that
// round-trips, in 'f' form unless |f| is below 1e-6 or at least 1e21, and
// in 'e' form with an unpadded exponent otherwise.
func (w *jsonWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.fail(fmt.Errorf("unsupported value: %v", f))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// jsonSafe marks the ASCII bytes a JSON string carries unescaped under
// encoding/json's HTML-safe rules: printable, and none of " \ < > &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// str writes s as a JSON string, escaped as encoding/json escapes it:
// " and \ with a backslash, \b \f \n \r \t by name, other control bytes
// and < > & as \u00XX, U+2028 and U+2029 as \u202X, and each byte of an
// invalid UTF-8 sequence as \ufffd.
func (w *jsonWriter) str(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// label writes a truth label as its text.
func (w *jsonWriter) label(l truth.Label) {
	if !l.Valid() {
		w.fail(fmt.Errorf("cannot encode invalid label %d", int8(l)))
		return
	}
	w.str(l.String())
}

// name writes a canonical name pair's non-empty fields (both are
// omitempty) and reports whether it wrote any.
func (w *jsonWriter) name(plain, b64 string) bool {
	if plain != "" {
		w.raw(`"name":`)
		w.str(plain)
	}
	if b64 != "" {
		if plain != "" {
			w.raw(",")
		}
		w.raw(`"name_b64":`)
		w.str(b64)
	}
	return plain != "" || b64 != ""
}

// appendChecksum appends the checksum of payload to b.
func appendChecksum(b, payload []byte) []byte {
	sum := crc32.ChecksumIEEE(payload)
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[sum>>shift&0xf])
	}
	return b
}

// maxJSONDepth is encoding/json's nesting limit: deeper input is a syntax
// error there, so it is here.
const maxJSONDepth = 10000

// jsonReader parses one in-memory JSON document in a single pass. Each
// value method expects the reader at the value's first byte and leaves it
// just past the value's last.
type jsonReader struct {
	data []byte
	off  int
	// buf holds the last string that needed unescaping.
	buf []byte
}

func (r *jsonReader) errorf(format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", r.off, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the reader where want should begin.
func (r *jsonReader) unexpected(want string) error {
	if r.off >= len(r.data) {
		return r.errorf("unexpected end of input, want %s", want)
	}
	return r.errorf("invalid character %q, want %s", r.data[r.off], want)
}

func (r *jsonReader) peek() byte {
	if r.off < len(r.data) {
		return r.data[r.off]
	}
	return 0
}

// ws skips JSON whitespace.
func (r *jsonReader) ws() {
	for r.off < len(r.data) {
		switch r.data[r.off] {
		case ' ', '\t', '\n', '\r':
			r.off++
		default:
			return
		}
	}
}

// literal consumes lit if the input continues with it.
func (r *jsonReader) literal(lit string) bool {
	if bytes.HasPrefix(r.data[r.off:], []byte(lit)) {
		r.off += len(lit)
		return true
	}
	return false
}

// null consumes a null. encoding/json decodes null into a string, number,
// bool or struct by leaving it as it was, and into a slice by making it
// nil; every value method below starts here.
func (r *jsonReader) null() bool { return r.literal("null") }

// object parses an object whose keys must each be one of keys, at most
// once, calling field with the key's index and the reader at its value.
func (r *jsonReader) object(keys []string, field func(int) error) error {
	if r.null() {
		return nil
	}
	if r.peek() != '{' {
		return r.unexpected("object")
	}
	r.off++
	r.ws()
	if r.peek() == '}' {
		r.off++
		return nil
	}
	var seen uint64
	for {
		r.ws()
		k, err := r.key(keys)
		if err != nil {
			return err
		}
		if seen&(1<<k) != 0 {
			return r.errorf("repeated key %q", keys[k])
		}
		seen |= 1 << k
		r.ws()
		if r.peek() != ':' {
			return r.unexpected("':'")
		}
		r.off++
		r.ws()
		if err := field(k); err != nil {
			return err
		}
		r.ws()
		switch r.peek() {
		case ',':
			r.off++
		case '}':
			r.off++
			return nil
		default:
			return r.unexpected("',' or '}'")
		}
	}
}

// key parses an object key and returns its index in keys. Matching is
// exact: encoding/json would also take a case-insensitive match.
func (r *jsonReader) key(keys []string) (int, error) {
	at := r.off
	k, err := r.rawString()
	if err != nil {
		return -1, err
	}
	for i, want := range keys {
		if string(k) == want {
			return i, nil
		}
	}
	r.off = at
	return -1, r.errorf("unknown field %q", k)
}

// array parses an array, calling elem with the reader at each element,
// and reports whether the value was null instead.
func (r *jsonReader) array(elem func() error) (null bool, err error) {
	if r.null() {
		return true, nil
	}
	if r.peek() != '[' {
		return false, r.unexpected("array")
	}
	r.off++
	r.ws()
	if r.peek() == ']' {
		r.off++
		return false, nil
	}
	for {
		r.ws()
		if err := elem(); err != nil {
			return false, err
		}
		r.ws()
		switch r.peek() {
		case ',':
			r.off++
		case ']':
			r.off++
			return false, nil
		default:
			return false, r.unexpected("',' or ']'")
		}
	}
}

// list parses an array into *dst as encoding/json fills a slice: null
// makes it nil, [] empty but not nil, and each element is decoded into a
// zero value appended to it. capHint sizes the slice on its first element.
func list[T any](r *jsonReader, dst *[]T, elem func(*T) error, capHint int) error {
	var s []T
	null, err := r.array(func() error {
		if s == nil {
			s = make([]T, 0, max(capHint, 1))
		}
		var zero T
		s = append(s, zero)
		return elem(&s[len(s)-1])
	})
	switch {
	case err != nil:
		return err
	case null:
		*dst = nil
	case s == nil:
		*dst = []T{}
	default:
		*dst = s
	}
	return nil
}

// number consumes a number, checked against the JSON grammar, and
// returns its text; want names the value expected in errors.
func (r *jsonReader) number(want string) ([]byte, error) {
	if c := r.peek(); c != '-' && (c < '0' || c > '9') {
		return nil, r.unexpected(want)
	}
	d, i := r.data, r.off
	digits := func() bool {
		start := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if i >= len(d) || d[i] < '1' || d[i] > '9' || !digits() {
		r.off = i
		return nil, r.unexpected("digit")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			r.off = i
			return nil, r.unexpected("digit")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			r.off = i
			return nil, r.unexpected("digit")
		}
	}
	text := d[r.off:i]
	r.off = i
	return text, nil
}

// float parses a number into *dst; null leaves it.
func (r *jsonReader) float(dst *float64) error {
	if r.null() {
		return nil
	}
	text, err := r.number("number")
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return r.errorf("number %s does not fit a float64", text)
	}
	*dst = f
	return nil
}

// int parses an integer into *dst; null leaves it.
func (r *jsonReader) int(dst *int) error {
	if r.null() {
		return nil
	}
	text, err := r.number("integer")
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(string(text))
	if err != nil {
		return r.errorf("number %s is not an int", text)
	}
	*dst = n
	return nil
}

// bool parses true or false into *dst; null leaves it.
func (r *jsonReader) bool(dst *bool) error {
	switch {
	case r.null():
	case r.literal("true"):
		*dst = true
	case r.literal("false"):
		*dst = false
	default:
		return r.unexpected("bool")
	}
	return nil
}

// string parses a string into *dst, copied out of the input so the result
// does not pin it; null leaves it.
func (r *jsonReader) string(dst *string) error {
	if r.null() {
		return nil
	}
	s, err := r.rawString()
	if err != nil {
		return err
	}
	*dst = string(s)
	return nil
}

// label parses a label's text into *dst as truth.Label's UnmarshalText
// does; null leaves it.
func (r *jsonReader) label(dst *truth.Label) error {
	if r.null() {
		return nil
	}
	s, err := r.rawString()
	if err != nil {
		return err
	}
	// The two texts the writer produces skip ParseLabel's copy.
	switch string(s) {
	case "true":
		*dst = truth.True
	case "false":
		*dst = truth.False
	default:
		l, err := truth.ParseLabel(string(s))
		if err != nil {
			return err
		}
		*dst = l
	}
	return nil
}

// rawString parses a string and returns its unescaped bytes: a view of
// the input, or of r.buf when the string holds escapes, valid until the
// next call.
func (r *jsonReader) rawString() ([]byte, error) {
	if r.peek() != '"' {
		return nil, r.unexpected("string")
	}
	d := r.data
	start := r.off + 1
	ascii := true
	for i := start; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			r.off = i + 1
			if !ascii && !utf8.Valid(d[start:i]) {
				return nil, r.errorf("string holds invalid UTF-8")
			}
			return d[start:i], nil
		case c == '\\':
			return r.unescape(start, i, ascii)
		case c < ' ':
			r.off = i
			return nil, r.errorf("control character %q in string", c)
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.off = len(d)
	return nil, r.unexpected("'\"'")
}

// unescape finishes rawString from d[i], the string's first backslash.
func (r *jsonReader) unescape(start, i int, ascii bool) ([]byte, error) {
	d := r.data
	b := append(r.buf[:0], d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			r.off, r.buf = i+1, b
			// Escapes always yield valid UTF-8; raw bytes may not.
			if !ascii && !utf8.Valid(b) {
				return nil, r.errorf("string holds invalid UTF-8")
			}
			return b, nil
		case c < ' ':
			r.off = i
			return nil, r.errorf("control character %q in string", c)
		case c != '\\':
			if c >= utf8.RuneSelf {
				ascii = false
			}
			b = append(b, c)
			i++
			continue
		}
		if i+1 >= len(d) {
			break
		}
		switch e := d[i+1]; e {
		case '"', '\\', '/':
			b = append(b, e)
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			c1, ok := hex4(d[i+2:])
			if !ok {
				r.off = i
				return nil, r.errorf(`invalid \u escape`)
			}
			i += 6
			if utf16.IsSurrogate(c1) {
				if c2, ok := hex4(d[min(i+2, len(d)):]); ok && d[i] == '\\' && d[i+1] == 'u' {
					if dec := utf16.DecodeRune(c1, c2); dec != utf8.RuneError {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
				}
				r.off = i - 6
				return nil, r.errorf("unpaired surrogate escape")
			}
			b = utf8.AppendRune(b, c1)
			continue
		default:
			r.off = i
			return nil, r.errorf("invalid escape %q", e)
		}
		i += 2
	}
	r.off = len(d)
	return nil, r.unexpected("'\"'")
}

// hex4 decodes the four hex digits \u escapes carry.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var v rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		v = v<<4 | rune(c)
	}
	return v, true
}

// skip consumes one value at nesting depth depth, checking only that it
// is well-formed JSON: what encoding/json's scanner accepts. Parsing a
// checkpoint uses it to tell malformed input from well-formed input that
// is not a checkpoint state.
func (r *jsonReader) skip(depth int) error {
	switch r.peek() {
	case '{', '[':
		if depth++; depth > maxJSONDepth {
			return r.errorf("nesting deeper than %d", maxJSONDepth)
		}
		open := r.data[r.off]
		r.off++
		r.ws()
		if r.peek() == open+2 { // '}' or ']'
			r.off++
			return nil
		}
		for {
			r.ws()
			if open == '{' {
				if err := r.skipString(); err != nil {
					return err
				}
				r.ws()
				if r.peek() != ':' {
					return r.unexpected("':'")
				}
				r.off++
				r.ws()
			}
			if err := r.skip(depth); err != nil {
				return err
			}
			r.ws()
			switch r.peek() {
			case ',':
				r.off++
			case open + 2:
				r.off++
				return nil
			default:
				return r.unexpected("',' or a closing bracket")
			}
		}
	case '"':
		return r.skipString()
	case 't':
		if r.literal("true") {
			return nil
		}
	case 'f':
		if r.literal("false") {
			return nil
		}
	case 'n':
		if r.null() {
			return nil
		}
	default:
		_, err := r.number("value")
		return err
	}
	return r.unexpected("value")
}

// skipString consumes a string, checking its escapes and that it holds no
// control bytes; like encoding/json's scanner it lets invalid UTF-8 by.
func (r *jsonReader) skipString() error {
	if r.peek() != '"' {
		return r.unexpected("string")
	}
	d := r.data
	for i := r.off + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			r.off = i + 1
			return nil
		case c < ' ':
			r.off = i
			return r.errorf("control character %q in string", c)
		case c == '\\':
			if i+1 >= len(d) {
				break
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if _, ok := hex4(d[i+2:]); !ok {
					r.off = i
					return r.errorf(`invalid \u escape`)
				}
				i += 5
			default:
				r.off = i
				return r.errorf("invalid escape %q", d[i+1])
			}
		}
	}
	r.off = len(d)
	return r.unexpected("'\"'")
}
