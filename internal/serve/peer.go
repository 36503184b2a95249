package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/ring"
	"dsarp/internal/snap"
	"dsarp/internal/store"
)

// PeerConfig wires a Server into the fleet's sharded warm-store tier.
// Every worker given the same member set (self + peers, order and
// self-inclusion irrelevant) computes the same rendezvous ring, so the
// fleet agrees without coordination on which Replicas workers own each
// result key. On a local store miss for a key, the worker hedge-fetches
// the payload from the key's other owners before simulating; after
// computing a result it pushes the payload to the other owners
// asynchronously. Reads repair lazily, so membership changes need no
// eager rebalance.
type PeerConfig struct {
	// Self is this worker's own base URL exactly as the other members
	// address it (it is also its ring member ID).
	Self string
	// Peers are the other members' base URLs. Including Self again is
	// harmless — every worker can be handed the same flat list.
	Peers []string
	// Replicas is the replication factor R (default 2): each key has R
	// owners, so any R-1 of them can be lost without losing warm state.
	Replicas int
	// FetchTimeout bounds one hedged peer fetch across all owners
	// (default 2s): past it the worker stops waiting and simulates.
	FetchTimeout time.Duration
	// PushAttempts caps delivery tries per pushed payload per owner
	// (default 4); PushBaseBackoff/PushMaxBackoff shape the capped
	// jittered backoff between them (defaults 100ms / 2s). Exhausted
	// attempts count a push failure — the simulation path is never
	// blocked or failed by replication.
	PushAttempts    int
	PushBaseBackoff time.Duration
	PushMaxBackoff  time.Duration
	// Client performs peer HTTP requests (default: a fresh client;
	// per-request deadlines come from FetchTimeout / push attempts).
	Client *http.Client
	// Seed makes push backoff jitter reproducible (tests).
	Seed int64
}

// ReplicationStats are the peer tier's counters, served under
// "replication" in /v1/stats.
type ReplicationStats struct {
	// FetchHits / FetchMisses count hedged peer fetches that did / did
	// not produce a verified payload (a miss falls through to a local
	// simulation).
	FetchHits   int64 `json:"fetch_hits"`
	FetchMisses int64 `json:"fetch_misses"`
	// PushOK / PushFails count per-owner payload deliveries; a failure
	// is recorded only after PushAttempts tries.
	PushOK    int64 `json:"push_ok"`
	PushFails int64 `json:"push_fails"`
	// CorruptRejected counts peer payloads refused because their bytes
	// did not match their declared hash or did not decode: fetched
	// responses discarded, and pushed bodies bounced with 400.
	CorruptRejected int64 `json:"corrupt_rejected"`
	Members         int   `json:"members"`
	Replicas        int   `json:"replicas"`
}

// peerNet is the Server's runtime view of the sharded warm-store tier.
type peerNet struct {
	self         string
	ring         *ring.Ring
	replicas     int
	fetchTimeout time.Duration
	pushAttempts int
	pushBase     time.Duration
	pushMax      time.Duration
	client       *http.Client
	log          *slog.Logger

	rngMu sync.Mutex
	rng   *rand.Rand

	fetchHits   atomic.Int64
	fetchMisses atomic.Int64
	pushOK      atomic.Int64
	pushFails   atomic.Int64
	corrupt     atomic.Int64

	pushes sync.WaitGroup // in-flight async push goroutines
}

// payloadHashHeader carries the hex SHA-256 of a /v1/results payload, on
// both responses (so a fetcher can verify before trusting) and pushes
// (so a receiver can verify before persisting). It is the store entry
// header's hash, surfaced on the wire.
const payloadHashHeader = "X-Dsarp-Payload-Sha256"

func newPeerNet(cfg PeerConfig, log *slog.Logger) *peerNet {
	if cfg.Self == "" {
		panic("serve: PeerConfig.Self is required")
	}
	self := strings.TrimRight(cfg.Self, "/")
	members := []string{self}
	for _, p := range cfg.Peers {
		members = append(members, strings.TrimRight(p, "/"))
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 2 * time.Second
	}
	if cfg.PushAttempts <= 0 {
		cfg.PushAttempts = 4
	}
	if cfg.PushBaseBackoff <= 0 {
		cfg.PushBaseBackoff = 100 * time.Millisecond
	}
	if cfg.PushMaxBackoff <= 0 {
		cfg.PushMaxBackoff = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	return &peerNet{
		self:         self,
		ring:         ring.New(members),
		replicas:     cfg.Replicas,
		fetchTimeout: cfg.FetchTimeout,
		pushAttempts: cfg.PushAttempts,
		pushBase:     cfg.PushBaseBackoff,
		pushMax:      cfg.PushMaxBackoff,
		client:       cfg.Client,
		log:          log,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
	}
}

// stats snapshots the tier's counters.
func (p *peerNet) stats() ReplicationStats {
	return ReplicationStats{
		FetchHits:       p.fetchHits.Load(),
		FetchMisses:     p.fetchMisses.Load(),
		PushOK:          p.pushOK.Load(),
		PushFails:       p.pushFails.Load(),
		CorruptRejected: p.corrupt.Load(),
		Members:         p.ring.Len(),
		Replicas:        p.replicas,
	}
}

// otherOwners returns the key's replica list minus this worker, in ring
// preference order: the members to fetch from or push to.
func (p *peerNet) otherOwners(k store.Key) []string {
	owners := p.ring.Owners(k, p.replicas)
	others := owners[:0:0]
	for _, o := range owners {
		if o != p.self {
			others = append(others, o)
		}
	}
	return others
}

// fetch is the runner's peer-fetch hook (exp.Runner.SetPeerFetch): on a
// local store miss it asks the key's other owners for the payload,
// hedged — all owners in parallel, first verified payload wins — under
// one short deadline, so a dead or slow peer delays the fall-through to
// simulation by at most FetchTimeout. Payloads are verified (declared
// hash against the bytes, then a full decode) before being trusted;
// corrupt responses are rejected and counted, never served.
func (p *peerNet) fetch(k store.Key) ([]byte, bool) {
	targets := p.otherOwners(k)
	if len(targets) == 0 {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.fetchTimeout)
	defer cancel()

	results := make(chan []byte, len(targets))
	for _, t := range targets {
		go func(target string) {
			data, err := p.fetchOne(ctx, target, k)
			if err != nil {
				if isCorrupt(err) {
					p.corrupt.Add(1)
					p.log.Warn("peer served a corrupt payload", "peer", target, "key", k.String(), "err", err)
				}
				results <- nil
				return
			}
			results <- data
		}(t)
	}
	for range targets {
		if data := <-results; data != nil {
			p.fetchHits.Add(1)
			return data, true
		}
	}
	p.fetchMisses.Add(1)
	return nil, false
}

// corruptError marks a payload that failed verification, distinguishing
// it (for the rejected-corrupt counter) from plain misses and transport
// errors.
type corruptError struct{ err error }

func (e *corruptError) Error() string { return e.err.Error() }

func isCorrupt(err error) bool {
	var ce *corruptError
	return errors.As(err, &ce)
}

// fetchOne performs one GET /v1/results/{key} against a peer and
// verifies what comes back.
func (p *peerNet) fetchOne(ctx context.Context, target string, k store.Key) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/v1/results/"+k.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: %s", target, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, exp.MaxResultBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > exp.MaxResultBytes {
		return nil, &corruptError{fmt.Errorf("payload exceeds %d bytes", int64(exp.MaxResultBytes))}
	}
	if err := verifyPayload(data, resp.Header.Get(payloadHashHeader)); err != nil {
		return nil, err
	}
	return data, nil
}

// verifyDeclaredHash checks payload bytes against their declared hash —
// the first gate every peer payload passes. A missing declaration is
// rejected too: an unverifiable payload is as useless as a corrupt one.
func verifyDeclaredHash(data []byte, declaredHex string) error {
	if declaredHex == "" {
		return &corruptError{fmt.Errorf("peer response lacks %s", payloadHashHeader)}
	}
	sum := sha256.Sum256(data)
	if !strings.EqualFold(hex.EncodeToString(sum[:]), declaredHex) {
		return &corruptError{fmt.Errorf("payload hash %x does not match declared %s", sum, declaredHex)}
	}
	return nil
}

// classifyPayload decides which store namespace peer-delivered bytes
// belong to by decoding them: a result payload (exp.EncodeResult bytes)
// or a checkpoint container (internal/snap bytes, whose own header +
// payload SHA-256 are the integrity check). The two formats are
// structurally disjoint, so classification is unambiguous; bytes that
// are neither are corrupt. A snapshot with a stale layout version is
// reported as ErrVersion (not corrupt): it is well-formed, just useless
// to this generation of the code.
func classifyPayload(data []byte) (store.Kind, error) {
	if _, err := exp.DecodeResult(data); err == nil {
		return store.KindResult, nil
	}
	if _, err := snap.NewReader(data); err == nil {
		return store.KindSnapshot, nil
	} else if errors.Is(err, snap.ErrVersion) {
		return store.KindSnapshot, err
	}
	return store.KindResult, &corruptError{fmt.Errorf("payload decodes as neither result nor snapshot")}
}

// verifyPayload checks peer-delivered bytes against their declared hash
// and decodes them: the two-layer gate every peer payload passes before
// it is persisted or served. The decode layer accepts both payload kinds
// the /v1/results wire carries — results and snapshot containers.
func verifyPayload(data []byte, declaredHex string) error {
	if err := verifyDeclaredHash(data, declaredHex); err != nil {
		return err
	}
	_, err := classifyPayload(data)
	return err
}

// push replicates a freshly-computed payload to the key's other owners,
// asynchronously: the computing worker's response is never delayed by
// replication, and delivery failures are counted, not propagated. Each
// owner is tried PushAttempts times under capped jittered backoff, which
// rides out worker restarts and chaos-injected faults; a peer that stays
// unreachable simply misses the payload until read-through repair
// catches it up.
func (p *peerNet) push(k store.Key, payload []byte) {
	targets := p.otherOwners(k)
	if len(targets) == 0 {
		return
	}
	sum := sha256.Sum256(payload)
	declared := hex.EncodeToString(sum[:])
	for _, t := range targets {
		p.pushes.Add(1)
		go func(target string) {
			defer p.pushes.Done()
			var lastErr error
			for attempt := 0; attempt < p.pushAttempts; attempt++ {
				if attempt > 0 {
					time.Sleep(p.pushBackoff(attempt - 1))
				}
				if lastErr = p.pushOnce(target, k, payload, declared); lastErr == nil {
					p.pushOK.Add(1)
					return
				}
			}
			p.pushFails.Add(1)
			p.log.Warn("replica push failed", "key", k.String(), "peer", target, "attempts", p.pushAttempts, "err", lastErr)
		}(t)
	}
}

// pushOnce performs one PUT /v1/results/{key} delivery attempt.
func (p *peerNet) pushOnce(target string, k store.Key, payload []byte, declared string) error {
	ctx, cancel := context.WithTimeout(context.Background(), max(p.fetchTimeout, 5*time.Second))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, target+"/v1/results/"+k.String(), bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(payloadHashHeader, declared)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer %s: %s", target, resp.Status)
	}
	return nil
}

// pushBackoff mirrors the fleet's retry envelope: capped exponential,
// jittered ±50% so simultaneous pushes from many workers don't
// resynchronize against a restarting peer.
func (p *peerNet) pushBackoff(attempt int) time.Duration {
	d := p.pushBase << min(attempt, 16)
	if d > p.pushMax || d <= 0 {
		d = p.pushMax
	}
	p.rngMu.Lock()
	f := 0.5 + p.rng.Float64()
	p.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// --- /v1/results handlers (registered whether or not a peer tier is
// configured: the GET side is also a useful raw-result export) ---

// handleResultGet serves the raw stored payload for a key — the exact
// EncodeResult bytes for a result, or the snap container bytes for a
// checkpoint — with their SHA-256 declared in a header so the fetching
// peer can verify before trusting. Result and snapshot key spaces are
// disjoint by construction (exp.SimSpec.Key vs PrefixKey), so one
// endpoint serves both namespaces: a result miss falls through to the
// snapshot namespace, which is how checkpoints travel to ring peers for
// cross-worker resume. Reads work even when the store is degraded
// (read-only): a worker with a dead disk keeps serving every payload it
// already holds.
func (s *Server) handleResultGet(w http.ResponseWriter, r *http.Request) {
	st := s.runner.Options().Store
	if st == nil {
		httpError(w, http.StatusNotFound, errNoStore)
		return
	}
	key, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	data, ok := st.Get(key)
	if !ok {
		data, ok = st.GetKind(key, store.KindSnapshot)
	}
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no payload for key %s", key))
		return
	}
	sum := sha256.Sum256(data)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(payloadHashHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleResultPut ingests a replica payload pushed by a peer. The body
// is verified — declared hash against the received bytes, then a full
// decode — before it touches the store, so a corrupt or truncated push
// can never poison the warm tier; rejects are counted. The decode also
// classifies the payload, routing it to the matching store namespace:
// results and snapshots replicate over the same wire but never mix on
// disk. A degraded (read-only) store refuses with 503: the pusher counts
// a failure and the payload stays wherever it already is.
func (s *Server) handleResultPut(w http.ResponseWriter, r *http.Request) {
	st := s.runner.Options().Store
	if st == nil {
		httpError(w, http.StatusNotFound, errNoStore)
		return
	}
	key, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, exp.MaxResultBytes))
	if err != nil {
		httpError(w, decodeStatus(err), fmt.Errorf("serve: read payload: %w", err))
		return
	}
	if err := verifyDeclaredHash(data, r.Header.Get(payloadHashHeader)); err != nil {
		if s.peer != nil {
			s.peer.corrupt.Add(1)
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	kind, err := classifyPayload(data)
	if err != nil {
		if s.peer != nil && isCorrupt(err) {
			s.peer.corrupt.Add(1)
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if st.ContainsKind(key, kind) {
		// Already replicated (a concurrent push, or read-through repair
		// beat us): nothing to write.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err := st.PutKind(key, kind, data); err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

var errNoStore = fmt.Errorf("serve: no result store configured")
