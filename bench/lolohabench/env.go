package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envBlock records what a result depends on besides the code: every
// result file carries one, so numbers from different machines or CPU
// limits are never compared unknowingly.
type envBlock struct {
	GoVersion  string         `json:"go_version"`
	NProc      int            `json:"nproc"`
	CPUMax     string         `json:"cgroup_cpu_max"`
	CPUModel   string         `json:"cpu_model"`
	Kernel     string         `json:"kernel"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	// OutFS is the filesystem type of -out, which holds the tree's state
	// directories: it sets what an outbox fsync costs.
	OutFS   string `json:"out_fs"`
	GitHead string `json:"git_head"`
}

const unavailable = "unavailable"

func environment(out string) envBlock {
	return envBlock{
		GoVersion: runtime.Version(),
		NProc:     runtime.NumCPU(),
		CPUMax:    firstLine("/sys/fs/cgroup/cpu.max"),
		CPUModel:  cpuModel(),
		Kernel:    firstLine("/proc/sys/kernel/osrelease"),
		OutFS:     fsType(out),
		GitHead:   gitHead(),
	}
}

func firstLine(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return unavailable
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return unavailable
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return unavailable
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return unavailable
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return "unknown"
}

// gitHead returns the checked-out commit, or "unavailable" unless the
// working directory itself is the top of a git work tree (git is not
// allowed to search the directories above it).
func gitHead() string {
	wd, err := os.Getwd()
	if err != nil {
		return unavailable
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return unavailable
	}
	return strings.TrimSpace(string(out))
}
