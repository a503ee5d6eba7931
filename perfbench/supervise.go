package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
)

// childEnv marks the process that measures. The process started from the
// command line only relays that child's output. An engine panic on a
// cluster worker goroutine cannot be recovered and kills its process; run
// in the child, it still reaches the result line as one failed call
// instead of taking every call of the run with it.
const childEnv = "PERFBENCH_CHILD"

// callLine is the prefix of the progress line the measuring process
// prints after every call; failed calls add failedMark.
const (
	callLine   = "call "
	failedMark = ": failed"
)

// measureInChild re-runs this binary with the same arguments as the
// measuring child and returns the exit code for the parent.
func measureInChild(defs []metric) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cmd := exec.Command(exe, os.Args[1:]...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	// The child must not outlive a parent that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return supervise(cmd, defs, os.Stdout)
}

// supervise runs cmd, copies its standard output to out line by line and
// counts its calls. If cmd dies without its own result line, supervise
// writes one: the call in flight counts as attempted and failed, and the
// run is not correct.
func supervise(cmd *exec.Cmd, defs []metric, out io.Writer) int {
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	attempted, failed := 0, 0
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(out, line)
		if strings.HasPrefix(line, callLine) {
			attempted++
			if strings.Contains(line, failedMark) {
				failed++
			}
		}
	}
	err = cmd.Wait()
	if err == nil {
		return 0
	}
	fmt.Fprintf(os.Stderr, "perfbench: measuring process ended: %v\n", err)
	rep := report{Attempted: attempted + 1, Failed: failed + 1, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		rep.Metrics[m.name] = metricValue{Unit: m.unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}
