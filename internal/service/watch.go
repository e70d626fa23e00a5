package service

import (
	"net/http"
	"net/url"
	"strconv"

	"pdr/internal/core"
	"pdr/internal/monitor"
	"pdr/internal/motion"
)

// WatchRequest is the body of POST /v1/watch: register a standing PDR query
// re-evaluated on each update tick. The threshold follows /v1/query's rule:
// rho when present, else varrho; one of them is required.
type WatchRequest struct {
	Rho    *float64    `json:"rho,omitempty"`
	Varrho *float64    `json:"varrho,omitempty"`
	L      float64     `json:"l"`
	Ahead  motion.Tick `json:"ahead"`
	Every  motion.Tick `json:"every"`
	Method string      `json:"method"`
}

// WatchResponse returns the subscription id.
type WatchResponse struct {
	ID int `json:"id"`
}

// EventJSON is one continuous-query change notification.
type EventJSON struct {
	SubID       int         `json:"subId"`
	At          motion.Tick `json:"at"`
	Target      motion.Tick `json:"target"`
	First       bool        `json:"first"`
	Area        float64     `json:"area"`
	AddedArea   float64     `json:"addedArea"`
	RemovedArea float64     `json:"removedArea"`
	Added       []RectJSON  `json:"added,omitempty"`
	Removed     []RectJSON  `json:"removed,omitempty"`
}

// registerWatchRoutes wires the continuous-query and audit endpoints;
// called from New.
func (s *Service) registerWatchRoutes() {
	s.handle("POST /v1/watch", s.handleWatch)
	s.handle("DELETE /v1/watch/{id}", s.handleUnwatch)
	s.handle("GET /v1/past", s.handlePast)
}

// handlePast answers GET /v1/past: an exact PDR query at a PAST timestamp
// reconstructed from the movement archive (requires the server to be
// configured with history; pdrserve enables it). Parameters: rho or varrho,
// l, at ("now-K" or an absolute tick before now).
func (s *Service) handlePast(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	l, err := strconv.ParseFloat(qp.Get("l"), 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad l %q", qp.Get("l"))
		return
	}
	ans, code, err := s.evalPast(r, qp, l)
	if err != nil {
		httpError(w, code, "%v", err)
		return
	}
	annotateQuery(r, ans)
	writeQueryReply(w, r, ans, false)
}

// evalPast is evalQuery for /v1/past. It needs no atClock: a tick that lands
// after the resolve keeps a past timestamp past, and changes nothing the
// archive answers for it.
func (s *Service) evalPast(r *http.Request, qp url.Values, l float64) (queryAnswer, int, error) {
	at, err := parsePastTick(qp.Get("at"), s.srv.Now())
	if err != nil {
		return queryAnswer{}, http.StatusBadRequest, err
	}
	rho, err := s.parseRho(qp)
	if err != nil {
		return queryAnswer{}, http.StatusBadRequest, err
	}
	ans := queryAnswer{method: "past-exact", q: core.Query{Rho: rho, L: l, At: at}}
	if ans.res, err = s.srv.PastSnapshotTraced(ans.q, requestSpan(r)); err != nil {
		return queryAnswer{}, http.StatusUnprocessableEntity, err
	}
	return ans, http.StatusOK, nil
}

func (s *Service) handleWatch(w http.ResponseWriter, r *http.Request) {
	pb, err := readBody(w, r)
	if err != nil {
		bodyReadError(w, err)
		return
	}
	var req WatchRequest
	err = decodeJSON(*pb, &req)
	bodyBufs.Put(pb)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	method, err := core.ParseMethod(req.Method)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rho, err := s.threshold(req.Rho, req.Varrho)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := s.mon.Register(monitor.ContinuousQuery{
		Rho: rho, L: req.L, Ahead: req.Ahead, Every: req.Every, Method: method,
	})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, WatchResponse{ID: id})
}

func (s *Service) handleUnwatch(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad id %q", r.PathValue("id"))
		return
	}
	if !s.mon.Unregister(id) {
		httpError(w, http.StatusNotFound, "no subscription %d", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// eventsJSON converts monitor events for the updates response.
func eventsJSON(events []monitor.Event) []EventJSON {
	out := make([]EventJSON, len(events))
	for i, ev := range events {
		ej := EventJSON{
			SubID: ev.SubID, At: ev.At, Target: ev.Target, First: ev.First,
			Area: ev.Area, AddedArea: ev.Added.Area(), RemovedArea: ev.Removed.Area(),
		}
		for _, r := range ev.Added {
			ej.Added = append(ej.Added, RectJSON{r.MinX, r.MinY, r.MaxX, r.MaxY})
		}
		for _, r := range ev.Removed {
			ej.Removed = append(ej.Removed, RectJSON{r.MinX, r.MinY, r.MaxX, r.MaxY})
		}
		out[i] = ej
	}
	return out
}
