package topo

import "testing"

// FuzzParseSpec feeds ParseSpec arbitrary spec strings — they arrive in
// STREC1 headers, the distsim handshake and -topo flags. It must never
// panic, must return a nil Graph with every error, and whatever it does
// build must render a spec that parses back to the same spec.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"clos:k=4", "clos1:fa=4,up=2,fe1=2", "clos2:fa=8,up=2,fe1=4,dn=4,fe1up=4,fe2=4",
		"sshuffle:n=8,s=3,seed=1", "star:m=4,d=2",
		// Typed-nil and oversize regressions.
		"clos:k=-4", "clos:k=4000", "sshuffle:n=50000000,s=3,seed=1", "star:m=3000000,d=4",
		"clos2:fa=1000000000,up=1000000000,fe1=1000000000,dn=1000000000,fe1up=1000000000,fe2=1000000000",
		"clos2:fa=0,up=0,fe1=0,dn=0,fe1up=1,fe2=1", "sshuffle:n=8,s=3,seed=-9223372036854775808",
		// Junk.
		"", ":", "clos", "clos:", "clos:k", "clos:k=", "clos:=4", "clos:k=4,k=6", "clos:k=4,,", "mesh:n=4",
		"star:m=9223372036854775807,d=2", "clos:k=4\x00",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := ParseSpec(spec)
		if err != nil {
			if g != nil {
				t.Fatalf("ParseSpec(%q) = %T with error %v; want an untyped nil Graph", spec, g, err)
			}
			return
		}
		if n, l := g.NumNodes(), len(g.GraphLinks()); n > maxSpecSize || l > maxSpecSize {
			t.Fatalf("ParseSpec(%q) built %d devices and %d links past the %d limit", spec, n, l, maxSpecSize)
		}
		again, err := ParseSpec(g.Spec())
		if err != nil {
			t.Fatalf("ParseSpec(%q) built %q, which does not parse back: %v", spec, g.Spec(), err)
		}
		if again.Spec() != g.Spec() {
			t.Fatalf("round trip of %q: %q became %q", spec, g.Spec(), again.Spec())
		}
	})
}
