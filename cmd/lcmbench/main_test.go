package main

import (
	"strings"
	"testing"
)

// A block size above 256 bytes exceeds the per-element modified bitmask
// of the LCM directory.  The protocol records it as a config error (not
// a panic), every affected cell fails its run, and lcmbench turns the
// failed cells into exit status 1 with a diagnostic on stderr.
func TestBlockSizeConfigErrorExitsOne(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-cells", "Stencil-static,Stencil-dynamic", "-scale", "64", "-p", "2", "-blocksize", "512"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("run() = %d, want exit code 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "block size 512 exceeds 256 bytes") {
		t.Errorf("stderr missing the config-error diagnostic:\n%s", errOut.String())
	}
}

// The interconnect sweep fails like the grid: at 512-byte blocks its
// LCM-mcc runs fail with the config error, which is reported on stderr
// and turns into exit status 1 instead of a table of zero-cycle rows.
func TestNetsweepConfigErrorExitsOne(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-netsweep", "-scale", "64", "-blocksize", "512"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("run() = %d, want exit code 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"FAILED Stencil-dynamic/lcm-mcc/P=8 cpb=2: ", "FAILED KV-read/lcm-mcc/", "block size 512 exceeds 256 bytes"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut.String())
		}
	}
}

// Unusable flag values are rejected before any cell runs, with exit
// status 2.
func TestBadBlockSizeFlagExitsTwo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-blocksize", "48"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-blocksize 48) = %d, want exit code 2", code)
	}
	if code := run([]string{"-scale", "0"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-scale 0) = %d, want exit code 2", code)
	}
}

// An unknown cell anywhere in the -cells list — a typo or a stray comma
// leaving an empty segment — is a usage error: exit status 2 before any
// cell runs, with a diagnostic naming the bad cell and the valid names.
func TestUnknownCellExitsTwo(t *testing.T) {
	for _, cells := range []string{"KV-mixed", "Stencil-static,nope", "Threshold,,KV-read"} {
		var out, errOut strings.Builder
		if code := run([]string{"-cells", cells, "-scale", "64", "-p", "2"}, &out, &errOut); code != 2 {
			t.Fatalf("run(-cells %s) = %d, want exit code 2\nstderr:\n%s", cells, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "unknown grid cell") ||
			!strings.Contains(errOut.String(), "want one of") {
			t.Errorf("run(-cells %s): stderr missing structured diagnostic:\n%s", cells, errOut.String())
		}
	}
}

// A negative Zipf skew is rejected before anything runs.
func TestBadKVSkewExitsTwo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-kvskew", "-1"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-kvskew -1) = %d, want exit code 2", code)
	}
}

// The serving cells driven in process end to end, verified against the
// sequential KV reference, with the skew and reshard knobs exercised.
func TestKVCellsRunVerified(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-cells", "KV-read,KV-write", "-scale", "16", "-p", "8",
		"-verify", "-kvskew", "1.2", "-kvreshard", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("run() = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "all benchmark results verified") {
		t.Errorf("stdout missing the verification verdict:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "KV-read") || !strings.Contains(out.String(), "KV-write") {
		t.Errorf("stdout missing the KV cells:\n%s", out.String())
	}
}

// A small grid driven in process end to end: a P=96 cell crosses the
// 64-bit word boundary of the directory's node sets and must still
// verify against the sequential references and exit 0.
func TestCrossWordGridRunsVerified(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-cells", "Stencil-static,Stencil-dynamic", "-scale", "64", "-p", "96", "-verify"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("run() = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "all benchmark results verified") {
		t.Errorf("stdout missing the verification verdict:\n%s", out.String())
	}
}
