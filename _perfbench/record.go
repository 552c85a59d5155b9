package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runRecord is the machine fingerprint and settings every result carries.
type runRecord struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	DataFS       string  `json:"data_fs"`
	FlushPolicy  string  `json:"flush_policy"`
	OpenRate     float64 `json:"open_loop_rate_per_s"`
	ClosedLoop   int     `json:"closed_loop_clients"`
	InflightCap  int     `json:"inflight_cap"`
	Nodes        int     `json:"nodes"`
	Started      string  `json:"started_utc"`
}

func newRunRecord(opts options, w *workload) runRecord {
	return runRecord{
		Workload:     w.name,
		Seed:         opts.seed,
		Seconds:      opts.seconds,
		Trace:        opts.trace,
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       opts.commit,
		SourceDigest: opts.sourceDigest,
		DataFS:       fsType(opts.out),
		FlushPolicy:  "fsync before every store ack (canonstore.Disk Sync in the store handler)",
		OpenRate:     w.rate,
		ClosedLoop:   runtime.GOMAXPROCS(0),
		InflightCap:  inflightCap,
		Nodes:        numNodes,
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the filesystems statfs reports by magic number.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x01021997: "9p",
	0x6A656A63: "virtiofs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// procSample is the process's CPU and allocation counters at one instant.
type procSample struct {
	cpuNs   int64
	mallocs uint64
	gcCPU   float64 // s
	allCPU  float64 // s
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procSample{
		cpuNs:   ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs: ms.Mallocs,
		gcCPU:   s[0].Value.Float64(),
		allCPU:  s[1].Value.Float64(),
	}
}

// procMetrics are the proc layer's figures between two samples.
func procMetrics(a, b procSample, ops float64) map[string]float64 {
	return map[string]float64{
		"proc.cpu_ms_per_op": ratio(float64(b.cpuNs-a.cpuNs)/1e6, ops),
		"proc.allocs_per_op": ratio(float64(b.mallocs-a.mallocs), ops),
		"proc.gc_cpu_share":  ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU),
	}
}

// liveHeapMiB returns the median live heap over heapSamples forced
// collections spread across one maintenance tick, so a replication round
// in flight moves it less. Two collections each time: the second frees
// what the first moved to the sync.Pool victim caches.
func liveHeapMiB() float64 {
	var mib []float64
	for i := 0; i < heapSamples; i++ {
		if i > 0 {
			time.Sleep(tick / heapSamples)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mib = append(mib, float64(ms.HeapAlloc)/(1<<20))
	}
	return median(mib)
}

const heapSamples = 5
