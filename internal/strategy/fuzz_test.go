package strategy

import (
	"testing"
	"time"
)

// FuzzPolicyConfig fuzzes the policy-config text format: New must never
// panic, an accepted spec must yield a working factory whose policy has a
// registered name and honors the Pick contract, and the bare name must
// re-parse (specs are round-trippable to their defaults).
func FuzzPolicyConfig(f *testing.F) {
	for _, seed := range []string{
		"single-best",
		"round-robin",
		"weighted",
		"latency",
		"latency stretch=2.5",
		"disjoint",
		"hybrid",
		"hybrid cap=2 lat=1 loss=3 disj=0.75 hops=0.5 rev=1.5 revwin=30s",
		"hybrid revwin=1ms",
		"",
		"nope",
		"latency stretch=NaN",
		"latency stretch=-Inf",
		"hybrid cap=-1",
		"hybrid revwin=0s",
		"hybrid cap=1e309",
		"latency stretch=2 stretch=3",
		"weighted =",
		"single-best\tstretch=2",
		"hybrid cap=0 lat=0 loss=0 disj=0 hops=0 rev=0",
	} {
		f.Add(seed)
	}
	known := map[string]bool{}
	for _, name := range Names() {
		known[name] = true
	}
	probe := []PathView{
		{Hops: 2, Delay: 5 * time.Millisecond, Bottleneck: 1e8, Links: 2, RevokedAge: -1},
		{Hops: 3, Delay: 8 * time.Millisecond, Bottleneck: 2e8, Links: 3, Shared: 1, Revoked: true},
		{Hops: 4, Delay: 2 * time.Millisecond, Bottleneck: 5e7, Links: 4, Loss: 0.5,
			RevokedAge: time.Second, Busy: true},
	}
	f.Fuzz(func(t *testing.T, spec string) {
		factory, err := New(spec)
		if err != nil {
			if factory != nil {
				t.Fatalf("New(%q): non-nil factory with error %v", spec, err)
			}
			return
		}
		p := factory()
		if p == nil {
			t.Fatalf("New(%q): factory built nil policy", spec)
		}
		if !known[p.Name()] {
			t.Fatalf("New(%q): unregistered policy name %q", spec, p.Name())
		}
		if _, err := New(p.Name()); err != nil {
			t.Fatalf("New(%q): name %q does not re-parse: %v", spec, p.Name(), err)
		}
		for _, paths := range [][]PathView{nil, probe, probe[1:2]} {
			got := p.Pick(paths)
			if got < -1 || got >= len(paths) {
				t.Fatalf("New(%q): Pick out of range: %d", spec, got)
			}
			if got >= 0 && (paths[got].Revoked || paths[got].Busy) {
				t.Fatalf("New(%q): picked non-idle path %d", spec, got)
			}
		}
	})
}
