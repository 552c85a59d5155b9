package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// stealSample is the machine's CPU steal counter (time the hypervisor ran
// something else while this machine's CPUs had work) at one instant.
type stealSample struct {
	at      time.Time
	jiffies int64 // USER_HZ ticks (1/100 s) summed over CPUs; -1 unknown
}

func sampleSteal() stealSample {
	s := stealSample{at: time.Now(), jiffies: -1}
	f, err := os.Open("/proc/stat")
	if err != nil {
		return s
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	if fields := strings.Fields(line); len(fields) > 8 && fields[0] == "cpu" {
		if v, err := strconv.ParseInt(fields[8], 10, 64); err == nil {
			s.jiffies = v
		}
	}
	return s
}

// stealShare is the share of the machine's CPU time stolen between a and b,
// or -1 when /proc/stat does not say.
func stealShare(a, b stealSample, cpus int) float64 {
	wall := b.at.Sub(a.at).Seconds()
	if a.jiffies < 0 || b.jiffies < 0 || wall <= 0 {
		return -1
	}
	return float64(b.jiffies-a.jiffies) / 100 / (wall * float64(cpus))
}
