//go:build unix

package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestFIFOTraceMaterializes: streaming reads the log twice, which a
// FIFO cannot serve, so the faithful replay of a FIFO-fed trace keeps
// the materialized path. The choice comes from the file's mode alone:
// opening the FIFO would block with no writer on the other end.
// CleanSummary and Execute over the FIFO then read it once between them,
// and Execute reports what it reports for the same log in a regular
// file.
func TestFIFOTraceMaterializes(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "log.swf")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	streams := make(chan bool, 1)
	go func() {
		_, ok := traceSpec(fifo).streamSource()
		streams <- ok
	}()
	select {
	case ok := <-streams:
		if ok {
			t.Fatal("a FIFO must not stream")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deciding the path opened the FIFO")
	}

	path := cleanedTrace(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(traceSpec(path))
	if err != nil {
		t.Fatal(err)
	}
	written := make(chan error, 1)
	go func() {
		f, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			written <- err
			return
		}
		_, err = f.Write(data)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		written <- err
	}()
	// simsched's sequence: report what cleaning did, then run.
	results := make(chan []RunResult, 1)
	go func() {
		if sum, err := traceSpec(fifo).CleanSummary(); err != nil || !strings.HasPrefix(sum, "cleaned ") {
			t.Errorf("CleanSummary over the FIFO: %q, %v", sum, err)
		}
		res, err := Execute(traceSpec(fifo))
		if err != nil {
			t.Errorf("Execute over the FIFO: %v", err)
		}
		results <- res
	}()
	var got []RunResult
	select {
	case got = <-results:
	case <-time.After(30 * time.Second):
		t.Fatal("Execute over the FIFO did not return: it opened the FIFO a second time")
	}
	if err := <-written; err != nil {
		t.Fatalf("writing the FIFO: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results diverge:\nFIFO         %+v\nregular file %+v", got, want)
	}
}
