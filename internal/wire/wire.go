// Package wire defines the JSON API types shared by the ltamd server and
// its clients, plus a typed HTTP client. The protocol is a thin, faithful
// projection of the core.System API: administration (subjects,
// authorizations, rules), enforcement (request/enter/leave/tick) and the
// query engine (inaccessible, contacts, alerts).
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/audit"
	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/movement"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/stream"
)

// Error is the wire form of a failure.
type Error struct {
	Error string `json:"error"`
}

// MoveRequest drives Request, Enter, Leave and Tick.
type MoveRequest struct {
	Time     interval.Time     `json:"time"`
	Subject  profile.SubjectID `json:"subject,omitempty"`
	Location graph.ID          `json:"location,omitempty"`
}

// DecisionResponse mirrors enforce.Decision.
type DecisionResponse struct {
	Granted   bool     `json:"granted"`
	Auth      authz.ID `json:"auth,omitempty"`
	Reason    string   `json:"reason,omitempty"`
	Exhausted bool     `json:"exhausted,omitempty"`
}

// TickResponse carries the alerts a monitor tick raised.
type TickResponse struct {
	Raised []audit.Alert `json:"raised"`
}

// RevokeResponse reports the cascade size of a revocation.
type RevokeResponse struct {
	Removed int `json:"removed"`
}

// RuleResponse is the derivation report for an added rule.
type RuleResponse struct {
	Derived []authz.Authorization `json:"derived"`
	Skips   []rules.Skip          `json:"skips,omitempty"`
}

// InaccessibleResponse lists the Algorithm-1 answer.
type InaccessibleResponse struct {
	Subject      profile.SubjectID `json:"subject"`
	Inaccessible []graph.ID        `json:"inaccessible"`
	Accessible   []graph.ID        `json:"accessible"`
}

// ContactsResponse lists co-locations.
type ContactsResponse struct {
	Contacts []movement.Contact `json:"contacts"`
}

// WhereResponse reports presence.
type WhereResponse struct {
	Inside   bool     `json:"inside"`
	Location graph.ID `json:"location,omitempty"`
}

// OccupantsResponse lists who is in a location.
type OccupantsResponse struct {
	Occupants []profile.SubjectID `json:"occupants"`
}

// ReachResponse answers the earliest-access query.
type ReachResponse struct {
	Reachable bool          `json:"reachable"`
	Earliest  interval.Time `json:"earliest,omitempty"`
}

// ResolveRequest selects a conflict-resolution strategy: "combine",
// "keep-first" or "keep-last".
type ResolveRequest struct {
	Strategy string `json:"strategy"`
}

// EndpointStats is one route's latency distribution: request count, mean,
// and p50/p95/p99 in microseconds (percentiles are power-of-two bucket
// upper bounds).
type EndpointStats struct {
	Count     uint64 `json:"count"`
	MeanMicro int64  `json:"mean_us"`
	P50Micro  int64  `json:"p50_us"`
	P95Micro  int64  `json:"p95_us"`
	P99Micro  int64  `json:"p99_us"`
}

// ViewStats reports the server's snapshot read path: the published view's
// epoch, how many views have been published, and the authorization
// store's shard count.
type ViewStats struct {
	Epoch      uint64 `json:"epoch"`
	Publishes  uint64 `json:"publishes"`
	AuthShards int    `json:"auth_shards"`
}

// StatsResponse reports server-side statistics: the engine clock, the
// epoch cache's effectiveness counters, the WAL group committer's
// batching counters, the sharded authorization store's shape, the
// snapshot read path's view counters, the movement history's size, and
// per-endpoint latency histograms.
type StatsResponse struct {
	Clock     interval.Time            `json:"clock"`
	Cache     query.CacheStats         `json:"cache"`
	Commit    storage.CommitterStats   `json:"commit"`
	Authz     authz.StoreStats         `json:"authz"`
	View      ViewStats                `json:"view"`
	Movement  movement.Stats           `json:"movement"`
	Endpoints map[string]EndpointStats `json:"endpoints,omitempty"`
	// Replication is present on durable primaries (role "primary",
	// log-shipping coordinates) and on replicas (role "replica",
	// applied sequence and lag).
	Replication *ReplicationStatus `json:"replication,omitempty"`
	// Stream reports the streaming-ingest counters and (once a
	// subscriber exists) the committed-event bus counters. Absent on
	// replicas, which serve neither half.
	Stream *StreamStats `json:"stream,omitempty"`
	// Trace reports the pipeline-tracing stage latencies (absent until
	// the first record is traced).
	Trace *TraceStats `json:"trace,omitempty"`
}

// StreamStats is the /v1/stats streaming section: the long-lived ingest
// connections' aggregate counters and the event bus's fan-out counters.
type StreamStats struct {
	Ingest stream.IngestStats `json:"ingest"`
	Bus    *stream.BusStats   `json:"bus,omitempty"`
}

// Reading is one positioning sample for the batched ingest endpoint
// (POST /v1/observe/batch): subject Subject observed at site coordinate
// (X, Y) at logical time Time. The server resolves the coordinate to a
// primitive location and discards it — the §1 privacy boundary.
type Reading struct {
	Time    interval.Time     `json:"time"`
	Subject profile.SubjectID `json:"subject"`
	X       float64           `json:"x"`
	Y       float64           `json:"y"`
}

// ObserveBatchRequest carries one ingest batch.
type ObserveBatchRequest struct {
	Readings []Reading `json:"readings"`
}

// ObserveOutcome is the per-reading result of a batch: the Def.-7
// decision when the reading produced an entry, whether a movement was
// recorded at all, and the per-reading application error, if any.
type ObserveOutcome struct {
	Granted bool     `json:"granted"`
	Auth    authz.ID `json:"auth,omitempty"`
	Reason  string   `json:"reason,omitempty"`
	Moved   bool     `json:"moved"`
	Error   string   `json:"error,omitempty"`
}

// ObserveBatchResponse lists one outcome per submitted reading, in
// order.
type ObserveBatchResponse struct {
	Results []ObserveOutcome `json:"results"`
}

// Client is a typed HTTP client for ltamd.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient builds a client for the given base URL (e.g.
// "http://localhost:8525").
func NewClient(base string) *Client {
	return &Client{BaseURL: base, HTTP: http.DefaultClient}
}

func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e Error
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("wire: %s %s: %s", method, path, e.Error)
		}
		return fmt.Errorf("wire: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("wire: decode %s %s: %w", method, path, err)
		}
	}
	return nil
}

// PutSubject upserts a profile.
func (c *Client) PutSubject(s profile.Subject) error {
	return c.do("POST", "/v1/subjects", s, nil)
}

// RemoveSubject deletes a profile.
func (c *Client) RemoveSubject(id profile.SubjectID) error {
	return c.do("DELETE", "/v1/subjects/"+url.PathEscape(string(id)), nil, nil)
}

// GetSubject fetches a profile.
func (c *Client) GetSubject(id profile.SubjectID) (profile.Subject, error) {
	var out profile.Subject
	err := c.do("GET", "/v1/subjects/"+url.PathEscape(string(id)), nil, &out)
	return out, err
}

// Subjects lists subject IDs.
func (c *Client) Subjects() ([]profile.SubjectID, error) {
	var out []profile.SubjectID
	err := c.do("GET", "/v1/subjects", nil, &out)
	return out, err
}

// AddAuthorization stores an authorization and returns it with its ID.
func (c *Client) AddAuthorization(a authz.Authorization) (authz.Authorization, error) {
	var out authz.Authorization
	err := c.do("POST", "/v1/authorizations", a, &out)
	return out, err
}

// RevokeAuthorization revokes an authorization (and its derivations).
func (c *Client) RevokeAuthorization(id authz.ID) (int, error) {
	var out RevokeResponse
	err := c.do("DELETE", fmt.Sprintf("/v1/authorizations/%d", id), nil, &out)
	return out.Removed, err
}

// Authorizations lists authorizations, optionally filtered.
func (c *Client) Authorizations(subject profile.SubjectID, location graph.ID) ([]authz.Authorization, error) {
	q := url.Values{}
	if subject != "" {
		q.Set("subject", string(subject))
	}
	if location != "" {
		q.Set("location", string(location))
	}
	path := "/v1/authorizations"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out []authz.Authorization
	err := c.do("GET", path, nil, &out)
	return out, err
}

// AddRule registers a rule and returns its derivation report.
func (c *Client) AddRule(spec rules.Spec) (RuleResponse, error) {
	var out RuleResponse
	err := c.do("POST", "/v1/rules", spec, &out)
	return out, err
}

// RemoveRule deletes a rule.
func (c *Client) RemoveRule(name string) error {
	return c.do("DELETE", "/v1/rules/"+url.PathEscape(name), nil, nil)
}

// Request evaluates an access request.
func (c *Client) Request(t interval.Time, s profile.SubjectID, l graph.ID) (DecisionResponse, error) {
	var out DecisionResponse
	err := c.do("POST", "/v1/request", MoveRequest{Time: t, Subject: s, Location: l}, &out)
	return out, err
}

// Enter records a movement into a location.
func (c *Client) Enter(t interval.Time, s profile.SubjectID, l graph.ID) (DecisionResponse, error) {
	var out DecisionResponse
	err := c.do("POST", "/v1/enter", MoveRequest{Time: t, Subject: s, Location: l}, &out)
	return out, err
}

// Leave records a movement out of the facility.
func (c *Client) Leave(t interval.Time, s profile.SubjectID) error {
	return c.do("POST", "/v1/leave", MoveRequest{Time: t, Subject: s}, nil)
}

// Tick advances the monitor clock.
func (c *Client) Tick(t interval.Time) ([]audit.Alert, error) {
	var out TickResponse
	err := c.do("POST", "/v1/tick", MoveRequest{Time: t}, &out)
	return out.Raised, err
}

// ObserveBatch submits a batch of positioning readings to the high-rate
// ingest endpoint; the server applies them in one critical section and
// logs them as a single WAL group. One outcome is returned per reading.
func (c *Client) ObserveBatch(readings []Reading) ([]ObserveOutcome, error) {
	var out ObserveBatchResponse
	err := c.do("POST", "/v1/observe/batch", ObserveBatchRequest{Readings: readings}, &out)
	return out.Results, err
}

// Inaccessible runs the Algorithm-1 query.
func (c *Client) Inaccessible(s profile.SubjectID) (InaccessibleResponse, error) {
	var out InaccessibleResponse
	err := c.do("GET", "/v1/queries/inaccessible?subject="+url.QueryEscape(string(s)), nil, &out)
	return out, err
}

// Contacts runs the contact-tracing query.
func (c *Client) Contacts(s profile.SubjectID, window interval.Interval) ([]movement.Contact, error) {
	q := url.Values{}
	q.Set("subject", string(s))
	q.Set("from", strconv.FormatInt(int64(window.Start), 10))
	q.Set("to", strconv.FormatInt(int64(window.End), 10))
	var out ContactsResponse
	err := c.do("GET", "/v1/queries/contacts?"+q.Encode(), nil, &out)
	return out.Contacts, err
}

// Where reports a subject's current location.
func (c *Client) Where(s profile.SubjectID) (WhereResponse, error) {
	var out WhereResponse
	err := c.do("GET", "/v1/where?subject="+url.QueryEscape(string(s)), nil, &out)
	return out, err
}

// Occupants lists who is in a location.
func (c *Client) Occupants(l graph.ID) ([]profile.SubjectID, error) {
	var out OccupantsResponse
	err := c.do("GET", "/v1/occupants?location="+url.QueryEscape(string(l)), nil, &out)
	return out.Occupants, err
}

// Alerts fetches alerts after the given sequence number.
func (c *Client) Alerts(since uint64) ([]audit.Alert, error) {
	var out []audit.Alert
	err := c.do("GET", fmt.Sprintf("/v1/alerts?since=%d", since), nil, &out)
	return out, err
}

// Reach asks for the earliest time s can be inside l.
func (c *Client) Reach(s profile.SubjectID, l graph.ID) (ReachResponse, error) {
	q := url.Values{}
	q.Set("subject", string(s))
	q.Set("location", string(l))
	var out ReachResponse
	err := c.do("GET", "/v1/queries/reach?"+q.Encode(), nil, &out)
	return out, err
}

// WhoCan lists the subjects who can reach l.
func (c *Client) WhoCan(l graph.ID) ([]profile.SubjectID, error) {
	var out OccupantsResponse
	err := c.do("GET", "/v1/queries/whocan?location="+url.QueryEscape(string(l)), nil, &out)
	return out.Occupants, err
}

// Conflicts lists detected authorization conflicts.
func (c *Client) Conflicts() ([]authz.Conflict, error) {
	var out []authz.Conflict
	err := c.do("GET", "/v1/conflicts", nil, &out)
	return out, err
}

// ResolveConflicts applies a resolution strategy server-side.
func (c *Client) ResolveConflicts(strategy string) ([]authz.Resolution, error) {
	var out []authz.Resolution
	err := c.do("POST", "/v1/conflicts/resolve", ResolveRequest{Strategy: strategy}, &out)
	return out, err
}

// GraphSpec fetches the site graph.
func (c *Client) GraphSpec() (graph.Spec, error) {
	var out graph.Spec
	err := c.do("GET", "/v1/graph", nil, &out)
	return out, err
}

// Snapshot asks the server to persist and compact.
func (c *Client) Snapshot() error {
	return c.do("POST", "/v1/snapshot", nil, nil)
}

// PromoteResponse reports a completed promotion: the new primary's term
// and the global sequence its new WAL lineage starts at.
type PromoteResponse struct {
	Role string `json:"role"`
	Term uint64 `json:"term"`
	Seq  uint64 `json:"seq"`
}

// Promote converts a follower into a primary in place (POST
// /v1/admin/promote). Idempotent: promoting a promoted node returns its
// established term.
func (c *Client) Promote() (PromoteResponse, error) {
	var out PromoteResponse
	err := c.do("POST", "/v1/admin/promote", nil, &out)
	return out, err
}

// Stats fetches server-side query-engine statistics.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.do("GET", "/v1/stats", nil, &out)
	return out, err
}
