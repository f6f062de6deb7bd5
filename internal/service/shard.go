package service

import (
	"errors"
	"net/http"
	"strconv"

	"diacap/internal/core"
	"diacap/internal/obs"
	"diacap/internal/shard"
)

// epochHeader carries the currently published shard epoch on every
// shard-endpoint response, so clients learn where the world is even
// (especially) when their conditional read is rejected — the same
// convention as the admission layer's Retry-After on 429.
const epochHeader = "X-Diacap-Epoch"

// ShardAssignRequest is one control-plane mutation routed to the
// sharded plane.
type ShardAssignRequest struct {
	// Op is "join", "leave", or "migrate".
	Op string `json:"op"`
	// Client is the global client index.
	Client int `json:"client"`
	// Server is the migration target; omitted or -1 lets the owning
	// shard's strategy choose. Ignored for join and leave.
	Server *int `json:"server,omitempty"`
}

// ShardAssignResponse reports the applied mutation and the newly
// published world state.
type ShardAssignResponse struct {
	Epoch uint64 `json:"epoch"`
	Shard int    `json:"shard"`
	// Server is the client's server after a join or migrate, and the
	// vacated server after a leave.
	Server     int     `json:"server"`
	D          float64 `json:"d"`
	CertifiedD float64 `json:"certifiedD"`
}

// ShardSnapshotResponse is the published world state at one epoch.
type ShardSnapshotResponse struct {
	Epoch      uint64  `json:"epoch"`
	Active     int     `json:"active"`
	D          float64 `json:"d"`
	CertifiedD float64 `json:"certifiedD"`
	MaxRho     float64 `json:"maxRho"`
	Assignment []int   `json:"assignment"`
	Loads      []int   `json:"loads"`
	Alive      []bool  `json:"alive"`
	// ShardLoad[i] counts the active clients grouped into shard i.
	ShardLoad []int `json:"shardLoad"`
}

// shardOpError maps plane rejections onto the service's status
// conventions: unknown input 400, state conflicts 409, capacity 422.
func shardOpError(err error) error {
	switch {
	case errors.Is(err, shard.ErrUnknownClient):
		return badRequest("%v", err)
	case errors.Is(err, core.ErrAlreadyAssigned),
		errors.Is(err, core.ErrNotAssigned),
		errors.Is(err, shard.ErrServerDown):
		return &httpError{status: http.StatusConflict, msg: err.Error()}
	case errors.Is(err, shard.ErrNoCapacity):
		return unprocessable("%v", err)
	}
	return err
}

func (s *Server) handleShardAssign(w http.ResponseWriter, r *http.Request) {
	p := s.opts.Shard
	var req ShardAssignRequest
	_, dsp := obs.Child(r.Context(), "service.decode")
	err := s.decode(w, r, &req)
	dsp.End()
	if err != nil {
		s.fail(w, r, err)
		return
	}
	var res shard.OpResult
	switch req.Op {
	case "join":
		res, err = p.Join(r.Context(), req.Client)
	case "leave":
		res, err = p.Leave(r.Context(), req.Client)
	case "migrate":
		target := -1
		if req.Server != nil {
			target = *req.Server
		}
		res, err = p.Migrate(r.Context(), req.Client, target)
	default:
		s.fail(w, r, badRequest("unknown op %q (want join, leave, or migrate)", req.Op))
		return
	}
	if err != nil {
		w.Header().Set(epochHeader, strconv.FormatUint(p.Epoch(), 10))
		s.fail(w, r, shardOpError(err), "op", req.Op, "client", req.Client)
		return
	}
	w.Header().Set(epochHeader, strconv.FormatUint(res.Epoch, 10))
	writeJSON(w, http.StatusOK, ShardAssignResponse{
		Epoch:      res.Epoch,
		Shard:      res.Shard,
		Server:     res.Server,
		D:          res.D,
		CertifiedD: res.CertifiedD,
	})
}

func (s *Server) handleShardSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, &httpError{status: http.StatusMethodNotAllowed, msg: "GET required"})
		return
	}
	p := s.opts.Shard
	snap := p.Current()
	if q := r.URL.Query().Get("epoch"); q != "" {
		epoch, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			s.fail(w, r, badRequest("invalid epoch %q: %v", q, err))
			return
		}
		snap, err = p.At(epoch)
		var stale *shard.ErrStaleEpoch
		if errors.As(err, &stale) {
			// The reader's epoch was retired: 409 with the live epoch
			// in the header so it can re-fetch unconditionally.
			w.Header().Set(epochHeader, strconv.FormatUint(stale.Current, 10))
			s.fail(w, r, &httpError{status: http.StatusConflict, msg: err.Error()})
			return
		}
		if err != nil {
			s.fail(w, r, err)
			return
		}
	}
	w.Header().Set(epochHeader, strconv.FormatUint(snap.Epoch, 10))
	resp := ShardSnapshotResponse{
		Epoch:      snap.Epoch,
		Active:     snap.Active,
		D:          snap.D,
		CertifiedD: snap.CertifiedD,
		MaxRho:     snap.MaxRho,
		Assignment: snap.Assignment,
		Loads:      snap.Loads,
		Alive:      snap.Alive,
		ShardLoad:  make([]int, len(snap.Shards)),
	}
	for i, sum := range snap.Shards {
		resp.ShardLoad[i] = sum.Active
	}
	writeJSON(w, http.StatusOK, resp)
}
