package swf

import (
	"bufio"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// refParseRecord is the reference record parse the byte-level kernel
// must agree with: strings.Fields, then strconv.ParseInt per field.
func refParseRecord(line string) (Record, error) {
	var r Record
	fields := strings.Fields(line)
	if len(fields) != NumFields {
		return r, fmt.Errorf("swf: record has %d fields, want %d", len(fields), NumFields)
	}
	for i, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return r, fmt.Errorf("swf: field %d %q: not an integer", i+1, f)
		}
		r.setField(i, v)
	}
	return r, nil
}

// refRead is the reference reader: the line/comment/header loop over
// bufio.Scanner text lines, with every data line through refParseRecord.
func refRead(text string) (*Log, error) {
	log := &Log{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			body := strings.TrimPrefix(line, ";")
			if !log.Header.parseHeaderLine(body) {
				log.Header.Extra = append(log.Header.Extra, strings.TrimSpace(body))
			}
			continue
		}
		rec, err := refParseRecord(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		log.Records = append(log.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("swf: read: %w", err)
	}
	return log, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkParse compares the kernel, on both its string and byte
// instantiations, with the reference parse of one line.
func checkParse(t *testing.T, line string) {
	t.Helper()
	want, wantErr := refParseRecord(line)
	for name, parse := range map[string]func(string) (Record, error){
		"ParseRecord":         ParseRecord,
		"parseRecord([]byte)": func(s string) (Record, error) { return parseRecord([]byte(s)) },
	} {
		got, err := parse(line)
		if errText(err) != errText(wantErr) {
			t.Fatalf("%s(%q): error %q, reference %q", name, line, errText(err), errText(wantErr))
		}
		if err == nil && got != want {
			t.Fatalf("%s(%q) = %+v, reference %+v", name, line, got, want)
		}
	}
}

// checkScan compares Scanner, Read and the reference reader on one input.
func checkScan(t *testing.T, text string) {
	t.Helper()
	want, wantErr := refRead(text)

	sc := NewScanner(strings.NewReader(text))
	var recs []Record
	for sc.Scan() {
		recs = append(recs, sc.Record())
	}
	if errText(sc.Err()) != errText(wantErr) {
		t.Fatalf("Scanner error %q, reference %q\ninput %q", errText(sc.Err()), errText(wantErr), text)
	}
	got, err := Read(strings.NewReader(text))
	if errText(err) != errText(wantErr) {
		t.Fatalf("Read error %q, reference %q\ninput %q", errText(err), errText(wantErr), text)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(recs, want.Records) {
		t.Fatalf("Scanner records %+v, reference %+v\ninput %q", recs, want.Records, text)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("Read records %+v, reference %+v\ninput %q", got.Records, want.Records, text)
	}
	if h := sc.Header(); !reflect.DeepEqual(h, want.Header) || !reflect.DeepEqual(got.Header, want.Header) {
		t.Fatalf("headers differ: Scanner %+v, Read %+v, reference %+v\ninput %q", h, got.Header, want.Header, text)
	}
}

// FuzzScanner holds the byte-level field kernel to the reference
// strings.Fields + strconv.ParseInt parse on every line — accept or
// reject, error text, and every value — and Scanner and Read to the
// reference reader on the whole input. The committed corpus in
// testdata/fuzz/FuzzScanner, which plain go test runs too, covers
// signs, the int64 limits and overflow, long and malformed tokens,
// tabs and CR, Unicode spaces and invalid UTF-8, wrong field counts
// and trailing garbage.
func FuzzScanner(f *testing.F) {
	f.Add(";Computer: fuzz\n1 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1\n")
	f.Fuzz(func(t *testing.T, text string) {
		for _, line := range strings.Split(text, "\n") {
			checkParse(t, line)
		}
		checkScan(t, text)
	})
}

// TestScannerScanAllocs pins the streaming scan at zero allocations per
// data record once the line buffer exists.
func TestScannerScanAllocs(t *testing.T) {
	const line = "123 4567 -1 890 16 -1 -1 16 1800 -1 1 7 1 1 1 1 -1 -1\n"
	text := ";Computer: allocs\n" + strings.Repeat(line, 2000)
	sc := NewScanner(strings.NewReader(text))
	if !sc.Scan() {
		t.Fatalf("first Scan failed: %v", sc.Err())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !sc.Scan() {
			t.Fatalf("Scan failed: %v", sc.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("Scanner.Scan: %v allocs per record, want 0", allocs)
	}
}
