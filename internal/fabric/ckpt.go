package fabric

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"

	"dwarn/internal/ckpt"
	"dwarn/internal/store"
)

// Checkpoint transfer: the coordinator serves its checkpoint store
// under /v2/fabric/ckpt/{key}, and remote workers mount it as the last
// tier of their own store chain. A worker whose cell misses locally
// pulls the group's image (its calibrated program cores) from the
// coordinator; a worker that calibrates a group cold pushes the image
// it built, so sibling cells landing on other workers fork instead of
// recalibrating. Transfers carry
// the encoded (CRC-trailed) form and are re-verified on receipt — a
// truncated or corrupted body decodes to an error and is treated as a
// miss, never a wrong answer.

func (c *Coordinator) handleCkptGet(w http.ResponseWriter, r *http.Request) {
	cs := c.cfg.Checkpoints
	key := r.PathValue("key")
	if cs == nil || !store.ValidKey(key) {
		http.Error(w, "fabric: no such checkpoint", http.StatusNotFound)
		return
	}
	img, ok := cs.Get(key)
	if !ok {
		http.Error(w, "fabric: no such checkpoint", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(ckpt.Encode(img))
}

func (c *Coordinator) handleCkptPut(w http.ResponseWriter, r *http.Request) {
	cs := c.cfg.Checkpoints
	key := r.PathValue("key")
	if cs == nil || !store.ValidKey(key) {
		http.Error(w, "fabric: checkpoints disabled or bad key", http.StatusNotFound)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, ckpt.MaxEncoded))
	if err != nil {
		http.Error(w, "fabric: checkpoint body too large or unreadable", http.StatusBadRequest)
		return
	}
	img, err := ckpt.Codec.Decode(key, data)
	if err != nil {
		http.Error(w, fmt.Sprintf("fabric: bad checkpoint: %v", err), http.StatusBadRequest)
		return
	}
	cs.Put(key, img)
	w.WriteHeader(http.StatusNoContent)
}

// RemoteCkptStore is the worker-side client of the coordinator's
// checkpoint endpoint — a ckpt.Store whose Get pulls and whose Put
// pushes encoded images. Both directions are best-effort: any
// transport or decode problem is a miss (Get) or a dropped publish
// (Put); the worker then warms cold, which is always correct.
type RemoteCkptStore struct {
	base   string
	token  string
	client *http.Client
}

// NewRemoteCkptStore builds a client against the coordinator's base
// URL. client may be nil (a default with rpcTimeout is used).
func NewRemoteCkptStore(coordinator, authToken string, client *http.Client) *RemoteCkptStore {
	if client == nil {
		client = &http.Client{Timeout: rpcTimeout}
	}
	return &RemoteCkptStore{base: coordinator, token: authToken, client: client}
}

func (s *RemoteCkptStore) url(key string) string { return s.base + "/v2/fabric/ckpt/" + key }

func (s *RemoteCkptStore) do(req *http.Request) (*http.Response, error) {
	if s.token != "" {
		req.Header.Set("Authorization", "Bearer "+s.token)
	}
	return s.client.Do(req)
}

// Get pulls one checkpoint; any failure is a miss.
func (s *RemoteCkptStore) Get(key string) (*ckpt.Image, bool) {
	if !store.ValidKey(key) {
		return nil, false
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, s.url(key), nil)
	if err != nil {
		return nil, false
	}
	resp, err := s.do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, ckpt.MaxEncoded+1))
	if err != nil {
		return nil, false
	}
	img, err := ckpt.Codec.Decode(key, data)
	if err != nil {
		return nil, false
	}
	return img, true
}

// Put pushes one checkpoint, best-effort.
func (s *RemoteCkptStore) Put(key string, img *ckpt.Image) {
	if !store.ValidKey(key) || img == nil {
		return
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, s.url(key), bytes.NewReader(ckpt.Encode(img)))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}
