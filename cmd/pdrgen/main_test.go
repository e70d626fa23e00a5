package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallWorkloadSHA256 is the digest of `pdrgen -n 2000 -ticks 10 -seed 1
// -o -`. pdrgen writes the benchmark's data set, so a change to the
// generator, the road network or the wire encoding that moves one byte of
// its output moves this digest. A change that means to keep the data set
// must leave it alone.
const smallWorkloadSHA256 = "e5d56a3c30ba199c52247d3633480cab5d68df1c82207dae8cf82f439728a2c9"

// TestOutputDigest checks the digest of what pdrgen writes to stdout and to
// a file.
func TestOutputDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.jsonl")
	for _, out := range []string{"-", path} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-n", "2000", "-ticks", "10", "-seed", "1", "-o", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("-o %s: exit %d, stderr:\n%s", out, code, stderr.String())
		}
		written := stdout.Bytes()
		if out != "-" {
			var err error
			if written, err = os.ReadFile(out); err != nil {
				t.Fatal(err)
			}
		}
		sum := sha256.Sum256(written)
		if got := hex.EncodeToString(sum[:]); got != smallWorkloadSHA256 {
			t.Errorf("-o %s: output sha256 = %s, want %s (%d bytes)", out, got, smallWorkloadSHA256, len(written))
		}
		if want := "pdrgen: wrote 2000 objects, 10 ticks, 1286 updates\n"; stderr.String() != want {
			t.Errorf("-o %s: stderr = %q, want %q", out, stderr.String(), want)
		}
	}
}

func TestUnknownFlagExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("stderr does not name the bad flag: %q", stderr.String())
	}
}
