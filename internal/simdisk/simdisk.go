// Package simdisk is the simulated persistent storage for the target
// systems. Paths are namespaced by node ("zk1/txnlog/log.1"), so data
// survives a simulated process restart within a run but is private to each
// run. Every operation carries an explicit fault-site ID: the disk boundary
// is where the paper injects IOException/FileNotFoundException for its JVM
// targets, and the same external-exception fault sites live here.
//
// # Error semantics
//
// Operations on missing paths have defined behavior, documented on each
// method: Read, Rename and Delete of a missing path return a
// FileNotFoundError attributed to the environment (site
// "env.disk.missing"), never a silent success — the partial-failure
// classes below need a crisp success baseline to perturb.
//
// # Partial failures
//
// Beyond the all-or-nothing injected faults of Reach, the disk executes
// the disk kinds of the inject pseudo-site table: a *short write*
// persists the first half of the data and then fails, *enospc-after*
// appends the first half of the data and then reports no space, and a
// *torn rename* copies the content to the destination while leaving the
// source in place. Each perturbable operation reaches its partial
// pseudo-sites in a fixed order after the operation's own site, so
// occurrence j of partial/disk/short-write/S deterministically names the
// j-th write at site S. The sweep is gated on Active(ClassPartial), so
// runs without the partial class build no pseudo-site strings and count
// nothing extra.
package simdisk

import (
	"sort"
	"strings"

	"anduril/internal/inject"
	"anduril/internal/logging"
)

// Disk is an in-memory filesystem for one simulated run.
type Disk struct {
	fi    *inject.Runtime
	log   *logging.Log
	files map[string][]byte

	// partial caches the partial pseudo-site ID strings per underlying
	// site, so an active partial sweep allocates them once per site
	// rather than once per operation.
	partial map[string]*partialSiteIDs
}

// partialSiteIDs carries one site's cached partial pseudo-site IDs.
type partialSiteIDs struct {
	shortWrite string
	enospc     string
	torn       string
}

// New creates an empty disk wired to the run's injection runtime and
// logger (partial faults emit their marker line through it).
func New(fi *inject.Runtime, log *logging.Log) *Disk {
	return &Disk{fi: fi, log: log, files: make(map[string][]byte)}
}

// partialIDs returns the cached partial pseudo-site IDs for a site,
// building them on first use. Only called when the partial sweep is
// active.
func (d *Disk) partialIDs(site string) *partialSiteIDs {
	ids := d.partial[site]
	if ids == nil {
		ids = &partialSiteIDs{
			shortWrite: inject.PseudoSiteID(inject.PartialShortWrite, site, ""),
			enospc:     inject.PseudoSiteID(inject.PartialENOSPC, site, ""),
			torn:       inject.PseudoSiteID(inject.PartialTornRename, site, ""),
		}
		if d.partial == nil {
			d.partial = make(map[string]*partialSiteIDs)
		}
		d.partial[site] = ids
	}
	return ids
}

// partialFault logs the fired fault's marker line and builds its error
// value.
func (d *Disk) partialFault(f inject.PseudoFault) error {
	if d.log != nil {
		d.log.Warnf("%s", f.Marker())
	}
	return &inject.Fault{Kind: f.Pseudo.Kind(), Site: f.Site(), Occurrence: f.Occurrence}
}

// Create makes an empty file (truncating any previous content). site is the
// fault site of the create call.
func (d *Disk) Create(site, path string) error {
	if err := d.fi.Reach(site, inject.IO); err != nil {
		return err
	}
	d.files[path] = nil
	return nil
}

// appendBytes adds data to the end of path, creating it if absent.
func (d *Disk) appendBytes(path string, data []byte) {
	cur := d.files[path]
	if len(cur)+len(data) > cap(cur) {
		// Grow 4x with a log-sized floor: append-heavy files (txn logs)
		// are the common case, and quadrupling halves the bytes copied
		// across a file's lifetime versus plain append doubling.
		ncap := 4 * cap(cur)
		if min := 1024 + len(cur) + len(data); ncap < min {
			ncap = min
		}
		grown := make([]byte, len(cur), ncap)
		copy(grown, cur)
		cur = grown
	}
	d.files[path] = append(cur, data...)
}

// Append adds data to the end of path, creating it if absent. Under a
// short-write or enospc-after partial fault the first half of data is
// appended before the error returns.
func (d *Disk) Append(site, path string, data []byte) error {
	if err := d.fi.Reach(site, inject.IO); err != nil {
		return err
	}
	if d.fi.Active(inject.ClassPartial) {
		ids := d.partialIDs(site)
		if f, ok := d.fi.ReachPseudo(ids.shortWrite, len(data)); ok {
			d.appendBytes(path, data[:len(data)/2])
			return d.partialFault(f)
		}
		if f, ok := d.fi.ReachPseudo(ids.enospc, len(data)); ok {
			d.appendBytes(path, data[:len(data)/2])
			return d.partialFault(f)
		}
	}
	d.appendBytes(path, data)
	return nil
}

// Write replaces the content of path. Under a short-write partial fault
// the file holds only the first half of data when the error returns.
func (d *Disk) Write(site, path string, data []byte) error {
	if err := d.fi.Reach(site, inject.IO); err != nil {
		return err
	}
	if d.fi.Active(inject.ClassPartial) {
		if f, ok := d.fi.ReachPseudo(d.partialIDs(site).shortWrite, len(data)); ok {
			d.files[path] = append([]byte(nil), data[:len(data)/2]...)
			return d.partialFault(f)
		}
	}
	d.files[path] = append([]byte(nil), data...)
	return nil
}

// Read returns the content of path; a missing file is a FileNotFoundError
// from the environment (not an injected fault).
func (d *Disk) Read(site, path string) ([]byte, error) {
	if err := d.fi.Reach(site, inject.FileNotFound); err != nil {
		return nil, err
	}
	data, ok := d.files[path]
	if !ok {
		return nil, &inject.Fault{Kind: inject.FileNotFound, Site: "env.disk.missing"}
	}
	return append([]byte(nil), data...), nil
}

// Sync models an fsync barrier; it is a fault site but otherwise a no-op.
func (d *Disk) Sync(site, path string) error {
	return d.fi.Reach(site, inject.IO)
}

// Rename moves a file; renaming a missing file is a FileNotFoundError
// from the environment. Under a torn-rename partial fault the content is
// copied to newPath but oldPath survives — both paths exist when the
// error returns, the defined intermediate state of a rename torn by a
// crash between the copy and the unlink.
func (d *Disk) Rename(site, oldPath, newPath string) error {
	if err := d.fi.Reach(site, inject.IO); err != nil {
		return err
	}
	data, ok := d.files[oldPath]
	if !ok {
		return &inject.Fault{Kind: inject.FileNotFound, Site: "env.disk.missing"}
	}
	if d.fi.Active(inject.ClassPartial) {
		if f, ok := d.fi.ReachPseudo(d.partialIDs(site).torn, len(data)); ok {
			d.files[newPath] = data
			return d.partialFault(f)
		}
	}
	delete(d.files, oldPath)
	d.files[newPath] = data
	return nil
}

// Delete removes a file; deleting a missing file is a FileNotFoundError
// from the environment, mirroring Read and Rename (a silent success
// would leave partial faults with no baseline to perturb).
func (d *Disk) Delete(site, path string) error {
	if err := d.fi.Reach(site, inject.IO); err != nil {
		return err
	}
	if _, ok := d.files[path]; !ok {
		return &inject.Fault{Kind: inject.FileNotFound, Site: "env.disk.missing"}
	}
	delete(d.files, path)
	return nil
}

// Exists reports whether path exists. Pure metadata; not a fault site.
func (d *Disk) Exists(path string) bool {
	_, ok := d.files[path]
	return ok
}

// Peek returns a copy of path's content without going through a fault
// site. Pure metadata like Exists; for oracles and verifiers that inspect
// external state after a run, never for target-system code (which must
// Read through its fault site).
func (d *Disk) Peek(path string) ([]byte, bool) {
	data, ok := d.files[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// Size returns the length of path's content (0 if absent).
func (d *Disk) Size(path string) int { return len(d.files[path]) }

// List returns the sorted paths under the given prefix.
func (d *Disk) List(prefix string) []string {
	out := make([]string, 0, len(d.files))
	for p := range d.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
