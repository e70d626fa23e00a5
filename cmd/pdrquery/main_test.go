package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdr/internal/core"
	"pdr/internal/datagen"
	"pdr/internal/motion"
	"pdr/internal/wire"
)

// workloadSHA256 is the digest of `pdrgen -n 2000 -ticks 10 -seed 1`
// (cmd/pdrgen's smallWorkloadSHA256): writeWorkload must write pdrgen's
// bytes.
const workloadSHA256 = "e5d56a3c30ba199c52247d3633480cab5d68df1c82207dae8cf82f439728a2c9"

// svgSHA256 is the digest, per method, of the SVG the separate rendering
// command (pdrviz) wrote before it became -svg: `pdrviz -method M -varrho 3
// -l 60 -ahead 10` over pdrgen's workload above. -svg with -at now+10 writes
// the same bytes.
var svgSHA256 = map[string]string{
	"fr": "c614929ddc72a8832eefc0303a170b4fad8a1fb42fa7a0382753fef47c0f5d04",
	"pa": "8f56c9f9c414af8390c4915cca03a086d82f75703bed63078487d600114c04b4",
}

// writeWorkload writes what `pdrgen -n 2000 -ticks 10 -seed 1` writes to a
// file under dir and returns its path.
func writeWorkload(t *testing.T, dir string) string {
	t.Helper()
	cfg := datagen.DefaultConfig(2000)
	cfg.Seed = 1
	g, err := datagen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ww := wire.NewWriter(&buf)
	for _, s := range g.InitialStates() {
		if err := ww.Write(wire.FromState(wire.KindState, s, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		ups := g.Advance()
		if err := ww.Write(wire.Record{Kind: wire.KindTick, Tick: int64(g.Now())}); err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			kind := wire.KindInsert
			if u.Kind == motion.Delete {
				kind = wire.KindDelete
			}
			if err := ww.Write(wire.FromState(kind, u.State, u.At)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != workloadSHA256 {
		t.Fatalf("workload sha256 = %x, want pdrgen's %s", sum, workloadSHA256)
	}
	path := filepath.Join(dir, "wl.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshotOf answers the query pdrquery runs for -varrho 3 -l 60 -at now+10
// on the workload at path, through the engine directly.
func snapshotOf(t *testing.T, path string, m core.Method) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.L = 60
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := wire.Replay(f, srv); err != nil {
		t.Fatal(err)
	}
	rho := core.RelativeThreshold(srv.NumObjects(), 3, cfg.Area)
	res, err := srv.Snapshot(core.Query{Rho: rho, L: 60, At: srv.Now() + 10}, m)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSummaryMatchesSnapshot checks that the printed summary names the
// method and the rectangle count the engine's Snapshot gives.
func TestSummaryMatchesSnapshot(t *testing.T) {
	path := writeWorkload(t, t.TempDir())
	for _, m := range []core.Method{core.FR, core.PA} {
		var stdout, stderr bytes.Buffer
		args := []string{"-data", path, "-method", strings.ToLower(m.String()), "-varrho", "3", "-l", "60", "-at", "now+10"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, stderr.String())
		}
		res := snapshotOf(t, path, m)
		for _, want := range []string{
			fmt.Sprintf("method=%s ", res.Method),
			fmt.Sprintf("dense region: %d rects,", len(res.Region)),
		} {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%s: stdout lacks %q:\n%s", m, want, stdout.String())
			}
		}
	}
}

// TestSVGMatchesRecordedDigest checks that -svg writes, byte for byte, the
// SVG recorded in svgSHA256, to a file and to stdout.
func TestSVGMatchesRecordedDigest(t *testing.T) {
	dir := t.TempDir()
	path := writeWorkload(t, dir)
	for _, m := range []string{"fr", "pa"} {
		file := filepath.Join(dir, m+".svg")
		for _, out := range []string{file, "-"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-data", path, "-method", m, "-varrho", "3", "-l", "60", "-at", "now+10", "-svg", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d, stderr:\n%s", args, code, stderr.String())
			}
			svg := stdout.Bytes()
			if out != "-" {
				var err error
				if svg, err = os.ReadFile(out); err != nil {
					t.Fatal(err)
				}
			}
			if sum := sha256.Sum256(svg); hex.EncodeToString(sum[:]) != svgSHA256[m] {
				t.Errorf("-method %s -svg %s: sha256 = %x, want %s (%d bytes)", m, out, sum, svgSHA256[m], len(svg))
			}
		}
	}
}

func TestSVGCreateErrorExits1(t *testing.T) {
	dir := t.TempDir()
	path := writeWorkload(t, dir)
	var stdout, stderr bytes.Buffer
	args := []string{"-data", path, "-svg", filepath.Join(dir, "no-such-dir", "out.svg")}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "pdrquery: ") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestMissingDataExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-data is required") {
		t.Errorf("stderr = %q", stderr.String())
	}
}
