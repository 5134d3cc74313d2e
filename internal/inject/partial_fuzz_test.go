package inject_test

// FuzzPartialPlan mirrors FuzzEnvPlan for the partial-failure layer, but
// drives a real simdisk.Disk (hence the external test package) so the
// executed semantics are fuzzed, not just the plan bookkeeping:
//
//   - a window mixing partial pseudo-sites with dotted error-return sites
//     never panics, and Decide is idempotent across both site shapes;
//   - a fired short-write or enospc-after persists exactly the documented
//     prefix — at most, and for nonempty payloads strictly less than, the
//     payload the caller handed the disk;
//   - a fired torn rename leaves BOTH paths; a clean injected fault
//     leaves the file untouched;
//   - the window budget of 1 holds across clean and partial injections
//     combined, and the runtime records exactly the faults observed.

import (
	"fmt"
	"testing"

	"anduril/internal/inject"
	"anduril/internal/simdisk"
)

// fuzzPartialSite maps a byte onto a small partial pseudo-site alphabet
// covering every partial kind, always in PseudoSiteID's canonical form.
func fuzzPartialSite(b byte) string {
	disk := func(x byte) string { return fmt.Sprintf("d.s%d", x%3) }
	node := func(x byte) string { return fmt.Sprintf("n%d", x%3) }
	switch b % 5 {
	case 0:
		return inject.PseudoSiteID(inject.PartialShortWrite, disk(b>>3), "")
	case 1:
		return inject.PseudoSiteID(inject.PartialENOSPC, disk(b>>3), "")
	case 2:
		return inject.PseudoSiteID(inject.PartialTornRename, disk(b>>3), "")
	case 3:
		return inject.PseudoSiteID(inject.PartialEINTR, disk(b>>3), "")
	default:
		return inject.PseudoSiteID(inject.PartialDupDeliver, node(b>>3), node(b>>5))
	}
}

func FuzzPartialPlan(f *testing.F) {
	f.Add([]byte{0, 7, 16, 33, 64}, []byte{10, 60, 130, 200, 10, 10})
	f.Add([]byte{}, []byte{0, 0, 0})
	f.Add([]byte{5, 10, 129, 254}, []byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, candBytes, ops []byte) {
		if len(candBytes) > 64 || len(ops) > 256 {
			t.Skip("keep the search space small")
		}
		// Candidates mix partial pseudo-sites and dotted error-return
		// sites in one window, like a combined-class search round.
		cands := make([]inject.Instance, 0, len(candBytes))
		carries := false
		for i, b := range candBytes {
			site := fmt.Sprintf("d.s%d", b%3)
			if i%2 == 0 {
				site = fuzzPartialSite(b)
				carries = true
			}
			cands = append(cands, inject.Instance{Site: site, Occurrence: int(b>>3)%8 + 1})
		}
		plan := inject.Window(cands)
		if got := inject.NewRuntime(plan).Active(inject.ClassPartial); got != carries {
			t.Fatalf("plan activates partial: %v, candidates carry partial: %v", got, carries)
		}

		// Decide is pure across both site shapes: repeated consultation
		// with identical arguments agrees.
		for _, b := range candBytes {
			for _, site := range []string{fmt.Sprintf("d.s%d", b%3), fuzzPartialSite(b)} {
				occ := int(b>>3)%8 + 1
				if plan.Decide(site, occ, "") != plan.Decide(site, occ, "") {
					t.Fatalf("Decide(%s,%d) not idempotent", site, occ)
				}
			}
		}

		// Drive a real disk under the mixed plan. The plan carries partial
		// instances (when carries), so the runtime self-activates the
		// partial sweep — no flag, exactly like script replay.
		r := inject.NewRuntime(plan)
		d := simdisk.New(r, nil)
		fired := 0
		for i, b := range ops {
			site := fmt.Sprintf("d.s%d", b%3)
			path := fmt.Sprintf("f%d", int(b>>6))
			dst := fmt.Sprintf("r%d", i)
			payload := make([]byte, int(b>>2)%17)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			before := d.Size(path)
			var err error
			wantPrefix := -1
			switch int(b>>4) % 3 {
			case 0:
				err = d.Append(site, path, payload)
				wantPrefix = before + len(payload)/2
			case 1:
				err = d.Write(site, path, payload)
				wantPrefix = len(payload) / 2
			default:
				if !d.Exists(path) {
					if cerr := d.Create(site, path); cerr != nil {
						fired++ // Create has no partial sites; only a clean injection errors
						continue
					}
				}
				err = d.Rename(site, path, dst)
			}
			if err == nil {
				continue
			}
			fault, ok := inject.AsFault(err)
			if !ok {
				t.Fatalf("disk error %v is not a Fault", err)
			}
			switch fault.Kind {
			case inject.ShortWrite, inject.NoSpace:
				fired++
				if inject.ClassOf(fault.Site) != inject.ClassPartial {
					t.Fatalf("%s fault attributed to non-partial site %s", fault.Kind, fault.Site)
				}
				if len(payload)/2 > len(payload) {
					t.Fatalf("prefix %d exceeds payload %d", len(payload)/2, len(payload))
				}
				if len(payload) > 0 && len(payload)/2 >= len(payload) {
					t.Fatalf("prefix %d of nonempty payload %d is not strict", len(payload)/2, len(payload))
				}
				if d.Size(path) != wantPrefix {
					t.Fatalf("%s persisted %d bytes at %s, want prefix state %d",
						fault.Kind, d.Size(path), path, wantPrefix)
				}
			case inject.TornRename:
				fired++
				if !d.Exists(path) || !d.Exists(dst) {
					t.Fatalf("torn rename left src=%v dst=%v, want both", d.Exists(path), d.Exists(dst))
				}
			case inject.IO:
				// Clean injected fault at the operation's own site: the
				// all-or-nothing baseline leaves the file untouched.
				fired++
				if wantPrefix >= 0 && d.Size(path) != before {
					t.Fatalf("clean fault mutated %s: %d bytes, had %d", path, d.Size(path), before)
				}
			case inject.FileNotFound:
				// Environment error for a missing path, not an injection.
			default:
				t.Fatalf("unexpected fault kind %s from the disk", fault.Kind)
			}
		}
		if fired > 1 {
			t.Fatalf("window fired %d times, budget is 1", fired)
		}
		if len(r.InjectedAll()) != fired {
			t.Fatalf("runtime recorded %d injections, saw %d faults", len(r.InjectedAll()), fired)
		}
	})
}
