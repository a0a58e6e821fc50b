// Package wiretest reads the golden wire vectors under a package's
// testdata/wire directory: one message per file, hex, a 4-byte XDR word
// per group. The files are an earlier commit's encoder output (CHANGES.md
// says which and how), so a test that holds today's encoder and decoder
// to them proves the wire has not moved.
package wiretest

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Vector returns the bytes of testdata/wire/<name>.hex.
func Vector(t testing.TB, name string) []byte {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", "wire", name+".hex"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// Check fails the test unless got is, byte for byte, the named vector.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	if want := Vector(t, name); !bytes.Equal(got, want) {
		t.Errorf("%s:\n got  %s\n want %s", name, Format(got), Format(want))
	}
}

// Format renders p the way the vector files hold it.
func Format(p []byte) string {
	var sb strings.Builder
	for i := 0; i < len(p); i += 4 {
		switch {
		case i == 0:
		case i%32 == 0:
			sb.WriteByte('\n')
		default:
			sb.WriteByte(' ')
		}
		sb.WriteString(hex.EncodeToString(p[i:min(i+4, len(p))]))
	}
	return sb.String()
}
