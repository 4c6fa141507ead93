package conformance

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lotos"
	"repro/internal/wire"
)

// FuzzTraceLog holds the trace-log reader and the conformance checker to
// their safety contract on arbitrary bytes: whatever a log file contains,
// wire.ParseTraceLog and Check return a result or an error, never a panic.
// A fuzzed log almost never keeps its digest chain, so a parsed log is
// checked twice: as read, and as if its chain had verified, which sends
// arbitrary sequence numbers and event labels through the merge and the
// trace acceptor. Seeds are the valid, truncated, tampered and restarted
// logs of the wire package's trace-log tests.
func FuzzTraceLog(f *testing.F) {
	service, err := lotos.Parse(`SPEC read1; (write3; exit [] read1; write3; exit) ENDSPEC`)
	if err != nil {
		f.Fatal(err)
	}

	write := func(restarted bool, outcome string) string {
		var buf bytes.Buffer
		tw, err := wire.NewTraceWriter(&buf, 1, 7, "ast", 0, false)
		if err != nil {
			f.Fatal(err)
		}
		tw.Event(0, "read1")
		if restarted {
			if tw, err = wire.NewTraceWriter(&buf, 1, 8, "ast", 0, true); err != nil {
				f.Fatal(err)
			}
		}
		tw.Event(1, "write3")
		if outcome != "" {
			if err := tw.End(outcome); err != nil {
				f.Fatal(err)
			}
		}
		return buf.String()
	}
	valid := write(false, wire.OutcomeCompleted)
	truncated := write(false, "")
	f.Add(valid)
	f.Add(truncated)
	f.Add(strings.Replace(truncated, "read1", "fake9", 1))
	f.Add(write(true, wire.OutcomeAborted))
	f.Add(write(false, wire.OutcomeDeadlocked))
	f.Add(valid[:len(valid)/2])
	f.Add("")

	f.Fuzz(func(t *testing.T, data string) {
		log, err := wire.ParseTraceLog(strings.NewReader(data))
		if err != nil {
			return
		}
		for _, digestOK := range []bool{log.DigestOK, true} {
			l := *log
			l.DigestOK = digestOK
			_, _ = Check(lotos.CloneSpec(service), map[int]*wire.EntityLog{l.Place: &l}, testMaxStates)
		}
	})
}
