package exec

import (
	"encoding/json"
	"fmt"
	"hash/crc32"

	"dwarn/internal/sim"
	"dwarn/internal/store"
)

// Store is the result store every executor memoizes through, keyed by
// sim.Fingerprint, so an identical cell is never simulated twice and a
// killed sweep resumes by skipping stored cells.
type Store = store.Store[*sim.Result]

// NewMemStore returns an empty, unbounded in-memory Store: the
// executor's default.
func NewMemStore() *store.Mem[*sim.Result] { return store.NewMem[*sim.Result](0, 0, nil) }

// DirStore is the durable Store (smtsim and dwarnd -store DIR): one
// checksummed JSON file per fingerprint, DIR/<fp>.json.
type DirStore = store.Dir[*sim.Result]

// NewDirStore creates the directory if needed and opens a store on it.
func NewDirStore(dir string) (*DirStore, error) { return store.NewDir(dir, resultCodec) }

// resultCodec writes {"crc32c":"%08x","result":{...}}, the CRC-32C taken
// over the fingerprint, then the payload bytes. An edited, truncated or
// renamed file fails the check and reads as a miss, so the cell
// re-simulates; so does a file from before the checksum, which the
// cell's next put rewrites.
var resultCodec = store.Codec[*sim.Result]{Kind: "result", Ext: ".json", Encode: encodeResult, Decode: decodeResult}

func resultCRC(fp string, payload []byte) string {
	tab := crc32.MakeTable(crc32.Castagnoli) // built once, then cached by crc32
	return fmt.Sprintf("%08x", crc32.Update(crc32.Checksum([]byte(fp), tab), tab, payload))
}

func encodeResult(fp string, res *sim.Result) ([]byte, error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, `{"crc32c":%q,"result":%s}`, resultCRC(fp, payload), payload), nil
}

func decodeResult(fp string, raw []byte) (*sim.Result, error) {
	var f struct {
		CRC    string          `json:"crc32c"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, err
	}
	if f.CRC != resultCRC(fp, f.Result) {
		return nil, fmt.Errorf("exec: result checksum mismatch")
	}
	var res sim.Result
	err := json.Unmarshal(f.Result, &res)
	return &res, err
}
