package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
)

// fuzzMaxPayload is the decompressed-payload cap FuzzTraceRead reads
// under: small, so a decompression bomb is cheap to refuse.
const fuzzMaxPayload = 256 << 10

// framed wraps a decompressed payload in a valid file header and gzip
// frame, so fuzzed bytes reach the record decoder past the gzip CRC.
func framed(t testing.TB, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(fileMagic)
	buf.WriteByte(fileVersion)
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceRead feeds arbitrary bytes through Read under a small
// payload cap, both as a whole file and as the payload of a valid
// frame. Read must never panic and never accept a payload over the
// cap, and a trace it accepts must replay: each thread's stream yields
// correct-path and wrong-path uops, wrapping past the end of its
// records, without panicking. Uploaded traces reach Read from the
// network, so this is the service's trace intake.
func FuzzTraceRead(f *testing.F) {
	raw := recordStandalone(f, "2-MIX", 3, 300)
	if _, err := Read(bytes.NewReader(raw), fuzzMaxPayload); err != nil {
		f.Fatalf("seed trace does not load under the cap: %v", err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw[len(fileMagic)+1:]))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := io.ReadAll(gz)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(payload)
	f.Add(raw[:len(raw)/2])
	f.Add(payload[:len(payload)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, framed(t, data)} {
			tr, err := Read(bytes.NewReader(in), fuzzMaxPayload)
			if err != nil {
				continue
			}
			var n int
			for i := range tr.Threads {
				n += len(tr.Threads[i].records)
			}
			if n > fuzzMaxPayload {
				t.Fatalf("accepted %d record bytes under a %d-byte cap", n, fuzzMaxPayload)
			}
			for _, src := range tr.Streams() {
				for i := 0; i < 600; i++ {
					u := nextUop(src)
					if u.Class.IsBranch() && i%7 == 0 {
						src.StartWrongPath(u.Seq, src.WrongPathPC(&u, !u.Branch.Taken))
						for k := 0; k < 8; k++ {
							nextWrongUop(src)
						}
					}
				}
			}
		}
	})
}
