package strutil

import "testing"

// FuzzDropTokenVariants holds DropVariants to the reference operators:
// for every k, including out-of-range ones, DropFirst and DropLast must
// equal DropFirstTokens and DropLastTokens on the raw value.
func FuzzDropTokenVariants(f *testing.F) {
	for _, s := range []string{
		"",
		"one",
		"Sony Bravia KDL-40 Black",
		"  leading and trailing  ",
		"tab\tseparated\t\tvalue",
		"non\u00a0breaking\u00a0space",
		"ctrl\x01bytes\x7f here\x00",
		"bad \xff\xfe utf8 \xc3",
		"NaN", " nan ", "null", "None", "NULL",
		"ÉCOLE Überall ǅemal",
		"line\nbreak\r\nand separator",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var d DropVariants
		d.Reset(s)
		if got, want := d.Tokens(), len(Tokenize(s)); got != want {
			t.Fatalf("Tokens(%q) = %d, want %d", s, got, want)
		}
		for k := -1; k <= d.Tokens()+1; k++ {
			if got, want := d.DropFirst(k), DropFirstTokens(s, k); got != want {
				t.Fatalf("DropFirst(%q, %d) = %q, want %q", s, k, got, want)
			}
			if got, want := d.DropLast(k), DropLastTokens(s, k); got != want {
				t.Fatalf("DropLast(%q, %d) = %q, want %q", s, k, got, want)
			}
		}
	})
}
