package simdisk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"anduril/internal/inject"
)

func TestCreateAppendRead(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	if err := d.Create("s.create", "n1/wal/1.log"); err != nil {
		t.Fatal(err)
	}
	if err := d.Append("s.append", "n1/wal/1.log", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := d.Append("s.append", "n1/wal/1.log", []byte("def")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read("s.read", "n1/wal/1.log")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("abcdef")) {
		t.Fatalf("content: %q", got)
	}
	if d.Size("n1/wal/1.log") != 6 {
		t.Fatalf("size=%d", d.Size("n1/wal/1.log"))
	}
}

func TestReadMissingIsFileNotFound(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	_, err := d.Read("s.read", "nope")
	if !errors.Is(err, inject.KindErr(inject.FileNotFound)) {
		t.Fatalf("err=%v", err)
	}
}

func TestWriteTruncates(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	d.Append("s", "f", []byte("long content"))
	d.Write("s", "f", []byte("x"))
	got, _ := d.Read("s", "f")
	if string(got) != "x" {
		t.Fatalf("content: %q", got)
	}
}

func TestRename(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	d.Write("s", "tmp/ckpt", []byte("img"))
	if err := d.Rename("s.rename", "tmp/ckpt", "current/ckpt"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("tmp/ckpt") || !d.Exists("current/ckpt") {
		t.Fatal("rename did not move file")
	}
	if err := d.Rename("s.rename", "tmp/ckpt", "x"); !errors.Is(err, inject.KindErr(inject.FileNotFound)) {
		t.Fatalf("rename missing: %v", err)
	}
}

func TestDeleteAndList(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	d.Write("s", "n1/a", nil)
	d.Write("s", "n1/b", nil)
	d.Write("s", "n2/c", nil)
	if got := d.List("n1/"); len(got) != 2 || got[0] != "n1/a" || got[1] != "n1/b" {
		t.Fatalf("list: %v", got)
	}
	d.Delete("s", "n1/a")
	if d.Exists("n1/a") {
		t.Fatal("delete failed")
	}
}

func TestInjectedFaultAborts(t *testing.T) {
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: "wal.append", Occurrence: 2}))
	d := New(fi, nil)
	if err := d.Append("wal.append", "f", []byte("a")); err != nil {
		t.Fatal(err)
	}
	err := d.Append("wal.append", "f", []byte("b"))
	if !errors.Is(err, inject.KindErr(inject.IO)) {
		t.Fatalf("err=%v", err)
	}
	// Failed append must not modify the file.
	got, _ := d.Read("r", "f")
	if string(got) != "a" {
		t.Fatalf("content after failed append: %q", got)
	}
}

func TestSyncIsFaultSiteOnly(t *testing.T) {
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: "wal.sync", Occurrence: 1}))
	d := New(fi, nil)
	if err := d.Sync("wal.sync", "f"); !errors.Is(err, inject.KindErr(inject.IO)) {
		t.Fatalf("sync err=%v", err)
	}
	if err := d.Sync("wal.sync", "f"); err != nil {
		t.Fatalf("second sync: %v", err)
	}
}

func TestDeleteMissingIsFileNotFound(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	if err := d.Delete("s.delete", "nope"); !errors.Is(err, inject.KindErr(inject.FileNotFound)) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestShortWritePersistsPrefix(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialShortWrite, "wal.append", "")
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: site, Occurrence: 2}))
	d := New(fi, nil)
	if err := d.Append("wal.append", "f", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	err := d.Append("wal.append", "f", []byte("wxyz"))
	if !errors.Is(err, inject.KindErr(inject.ShortWrite)) {
		t.Fatalf("err=%v", err)
	}
	got, _ := d.Read("r", "f")
	if string(got) != "abcdwx" {
		t.Fatalf("content after short write: %q", got)
	}
}

func TestShortWriteOnWriteTruncatesToPrefix(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialShortWrite, "img.write", "")
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	d := New(fi, nil)
	err := d.Write("img.write", "f", []byte("123456"))
	if !errors.Is(err, inject.KindErr(inject.ShortWrite)) {
		t.Fatalf("err=%v", err)
	}
	got, _ := d.Read("r", "f")
	if string(got) != "123" {
		t.Fatalf("content after short write: %q", got)
	}
}

func TestENOSPCAfterPartialAppend(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialENOSPC, "wal.append", "")
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	d := New(fi, nil)
	err := d.Append("wal.append", "f", []byte("abcdef"))
	if !errors.Is(err, inject.KindErr(inject.NoSpace)) {
		t.Fatalf("err=%v", err)
	}
	got, _ := d.Read("r", "f")
	if string(got) != "abc" {
		t.Fatalf("content after enospc: %q", got)
	}
}

func TestTornRenameKeepsBothPaths(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialTornRename, "ckpt.rename", "")
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	d := New(fi, nil)
	d.Write("s", "tmp/ckpt", []byte("img"))
	err := d.Rename("ckpt.rename", "tmp/ckpt", "cur/ckpt")
	if !errors.Is(err, inject.KindErr(inject.TornRename)) {
		t.Fatalf("err=%v", err)
	}
	if !d.Exists("tmp/ckpt") || !d.Exists("cur/ckpt") {
		t.Fatalf("torn rename state: src=%v dst=%v", d.Exists("tmp/ckpt"), d.Exists("cur/ckpt"))
	}
	got, _ := d.Read("r", "cur/ckpt")
	if string(got) != "img" {
		t.Fatalf("destination content: %q", got)
	}
}

// Inactive partial sweep must not count pseudo-sites: byte-identity of
// site-only runs depends on it.
func TestPartialSitesNotCountedWhenInactive(t *testing.T) {
	fi := inject.NewRuntime(nil)
	d := New(fi, nil)
	d.Append("wal.append", "f", []byte("abc"))
	d.Rename("s.rename", "f", "g")
	for site := range fi.Counts() {
		if inject.ClassOf(site) == inject.ClassPartial {
			t.Fatalf("partial site %s counted in inactive run", site)
		}
	}
}

// Property: append-then-read returns the concatenation, and reads never
// alias internal state (mutating the returned slice is safe).
func TestAppendReadProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		d := New(inject.NewRuntime(nil), nil)
		var want []byte
		for _, c := range chunks {
			if d.Append("s", "f", c) != nil {
				return false
			}
			want = append(want, c...)
		}
		if len(chunks) == 0 {
			return !d.Exists("f")
		}
		got, err := d.Read("s", "f")
		if err != nil || !bytes.Equal(got, want) {
			return false
		}
		for i := range got {
			got[i] = 0xFF
		}
		again, _ := d.Read("s", "f")
		return bytes.Equal(again, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
