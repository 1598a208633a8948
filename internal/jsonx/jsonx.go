// Package jsonx holds the zero-allocation JSON string escaper shared by the
// serving tier and the shard router: both build response bodies by hand into
// pooled buffers, and both must produce byte-identical output to
// encoding/json so transcripts from either tier diff clean against the
// reference encoder.
package jsonx

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// AppendString appends s as a quoted JSON string using exactly
// encoding/json's default (HTML-escaping) table: `"` and `\` get a backslash,
// \b \f \n \r \t their short escapes, other control bytes `\u00xx`, `<` `>` `&`
// their `\u00xx` forms, U+2028/U+2029 their `\u202x` forms, and invalid
// UTF-8 the literal `�` escape. s is a string on the daemon and a cell
// aliasing a shard's reply on the router.
func AppendString[T string | []byte](dst []byte, s T) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		var enc [utf8.UTFMax]byte
		c, size := utf8.DecodeRune(enc[:copy(enc[:], s[i:])])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
		default:
			i += size
		}
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
