package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dsarp/internal/cache"
	"dsarp/internal/cpu"
	"dsarp/internal/dram"
	"dsarp/internal/power"
	"dsarp/internal/sched"
	"dsarp/internal/sim"
)

// resultWire mirrors sim.Result's model fields with a JSON-safe error
// representation. Go's encoding/json prints float64s in their shortest
// exactly-round-tripping form, so a decoded result is bit-identical to the
// encoded one — the property the byte-exact serving guarantee rests on
// (pinned by TestResultJSONRoundTrip and the warm-store golden tests).
// SteppedCycles describes the run loop, not the simulated machine, and is
// not stored: it decodes as zero.
type resultWire struct {
	Mechanism string `json:"mechanism"`
	Workload  string `json:"workload"`

	IPC   []float64     `json:"ipc"`
	MPKI  []float64     `json:"mpki"`
	Cores []cpu.Stats   `json:"cores"`
	Cache []cache.Stats `json:"cache"`

	DRAM   dram.Stats      `json:"dram"`
	Sched  sched.Stats     `json:"sched"`
	Energy power.Breakdown `json:"energy"`

	MeasuredCycles int64 `json:"measured_cycles"`

	CheckErr string `json:"check_err,omitempty"`
}

// MaxResultBytes bounds one encoded result, and the JSON message carrying
// it, on every wire: peer fetches and pushes, /v1 request bodies and a
// fleet worker's /v1/sim reply. Real results are a few KB.
const MaxResultBytes = 8 << 20

// EncodeResult serializes a simulation result for the store and the wire.
func EncodeResult(r sim.Result) ([]byte, error) {
	w := resultWire{
		Mechanism:      r.Mechanism,
		Workload:       r.Workload,
		IPC:            r.IPC,
		MPKI:           r.MPKI,
		Cores:          r.Cores,
		Cache:          r.Cache,
		DRAM:           r.DRAM,
		Sched:          r.Sched,
		Energy:         r.Energy,
		MeasuredCycles: r.MeasuredCycles,
	}
	if r.CheckErr != nil {
		w.CheckErr = r.CheckErr.Error()
	}
	return json.Marshal(w)
}

// DecodeResult is the inverse of EncodeResult. Unknown fields are an
// error: a payload written by a different wire format must read as
// corrupt, not as a silently-partial result. So are bytes after the
// object, a result with no cores, and per-core series of unequal length:
// no simulation produces them, and table assembly indexes them in step.
func DecodeResult(data []byte) (sim.Result, error) {
	var w resultWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return sim.Result{}, fmt.Errorf("exp: decode result: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return sim.Result{}, errors.New("exp: decode result: trailing data after the object")
	}
	if len(w.IPC) == 0 {
		return sim.Result{}, errors.New("exp: decode result: no per-core ipc")
	}
	if len(w.MPKI) != len(w.IPC) || len(w.Cores) != len(w.IPC) {
		return sim.Result{}, fmt.Errorf("exp: decode result: per-core lengths differ (ipc %d, mpki %d, cores %d)",
			len(w.IPC), len(w.MPKI), len(w.Cores))
	}
	r := sim.Result{
		Mechanism:      w.Mechanism,
		Workload:       w.Workload,
		IPC:            w.IPC,
		MPKI:           w.MPKI,
		Cores:          w.Cores,
		Cache:          w.Cache,
		DRAM:           w.DRAM,
		Sched:          w.Sched,
		Energy:         w.Energy,
		MeasuredCycles: w.MeasuredCycles,
	}
	if w.CheckErr != "" {
		r.CheckErr = errors.New(w.CheckErr)
	}
	return r, nil
}
