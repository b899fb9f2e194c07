package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp is printed with every result: the hardware, toolchain,
// source revision and exact program flags the numbers came from.
func envStamp(cfg config) map[string]any {
	env := map[string]any{
		"workload":     cfg.Workload,
		"seed":         cfg.Seed,
		"seconds":      cfg.Seconds,
		"trace":        cfg.Trace,
		"hw_threads":   runtime.NumCPU(),
		"GOMAXPROCS":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"git_rev":      gitRev(),
		"src_sha256":   sourceDigest("."),
		"scale":        scaleFlag,
		"cosimd_flags": strings.Join(cosimdArgs, " "),
	}
	if cfg.Workload == "cosimd-mix" {
		env["mix_keys"] = mixKeyNames(cfg.Seed)
	} else {
		env["program_seed"] = exhibitSeed(cfg.Seed)
		env["cosim_flags"] = strings.Join(exhibitArgs(cfg.Workload, exhibitSeed(cfg.Seed)), " ")
	}
	if bi, err := buildinfo.ReadFile(filepath.Join(cfg.Bin, "cosim")); err == nil {
		env["cosim_go_version"] = bi.GoVersion
	}
	return env
}

// gitRev is the checkout's commit, or "unknown" when the checkout is
// not a git work tree (src_sha256 identifies the sources either way).
// Git may not search above the checkout.
func gitRev() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root outside
// build output, in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
