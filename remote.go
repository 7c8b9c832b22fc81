package bgpblackholing

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// RemoteBackend speaks the existing bhserve HTTP/NDJSON wire format as
// a Backend: /events (JSON and NDJSON), /figure4 (counts and the
// mergeable shape=sets form), /legitimacy, /stats and /healthz. It is
// how a bhroute router — or a federated bhquery — reaches a shard.
//
// A backend may know several URLs for the same shard: the primary
// (the read-write server) plus replicas (read-only opens of shipped
// segment copies, see ReplicateStore). Buffered requests are hedged:
// after HedgeDelay without an answer a second attempt races against a
// replica and the first success wins. Streaming requests fail over
// only before the first body byte — a half-consumed stream cannot be
// restarted without duplicating records.
type RemoteBackend struct {
	name    string
	urls    []string
	token   string
	timeout time.Duration
	hedge   time.Duration
	client  *http.Client
}

// RemoteOptions configures NewRemoteBackend.
type RemoteOptions struct {
	// Name labels the shard in federated stats; defaults to the
	// primary URL's host.
	Name string
	// AuthToken, when non-empty, is sent as a bearer token.
	AuthToken string
	// Timeout bounds each buffered request (not streams). Defaults to
	// 30s.
	Timeout time.Duration
	// HedgeDelay is how long a buffered request may run before a
	// hedged attempt is launched against the next replica. Zero means
	// sequential failover only (try the next URL after a failure).
	HedgeDelay time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// NewRemoteBackend builds a Backend over one shard's URL set: the
// primary first, then replicas in preference order.
func NewRemoteBackend(urls []string, opts RemoteOptions) (*RemoteBackend, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("remote backend needs at least one URL")
	}
	cleaned := make([]string, len(urls))
	for i, u := range urls {
		cleaned[i] = strings.TrimRight(strings.TrimSpace(u), "/")
		if cleaned[i] == "" {
			return nil, fmt.Errorf("remote backend URL %d is empty", i)
		}
	}
	b := &RemoteBackend{
		name:    opts.Name,
		urls:    cleaned,
		token:   opts.AuthToken,
		timeout: opts.Timeout,
		hedge:   opts.HedgeDelay,
		client:  opts.Client,
	}
	if b.name == "" {
		if u, err := url.Parse(cleaned[0]); err == nil && u.Host != "" {
			b.name = u.Host
		} else {
			b.name = cleaned[0]
		}
	}
	if b.timeout <= 0 {
		b.timeout = 30 * time.Second
	}
	if b.client == nil {
		b.client = http.DefaultClient
	}
	return b, nil
}

// Name implements Backend.
func (b *RemoteBackend) Name() string { return b.name }

// URL returns the shard's primary endpoint.
func (b *RemoteBackend) URL() string { return b.urls[0] }

// Close implements Backend. The HTTP client is shared; nothing to
// release.
func (b *RemoteBackend) Close() error { return nil }

// RemoteError is a non-2xx answer from a shard, preserving the status
// so a router can distinguish a shard's 400 (caller error — propagate)
// from a 5xx (shard failure — count and degrade).
type RemoteError struct {
	Status int
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote status %d: %s", e.Status, e.Msg)
}

// attempt runs one GET against one base URL. On non-2xx the body's
// {"error": ...} is folded into a *RemoteError.
func (b *RemoteBackend) attempt(ctx context.Context, base, path string, params url.Values) (*http.Response, error) {
	u := base + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if b.token != "" {
		req.Header.Set("Authorization", "Bearer "+b.token)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		msg := resp.Status
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
			msg = body.Error
		}
		return nil, &RemoteError{Status: resp.StatusCode, Msg: msg}
	}
	return resp, nil
}

// hedged races the URL set for a buffered request: the primary starts
// immediately; every HedgeDelay without an answer the next replica
// joins. The first success wins and the losers are cancelled. With no
// hedge delay (or a single URL) it degrades to sequential failover.
// hedgedLaunches reports how many extra attempts were started.
func (b *RemoteBackend) hedged(ctx context.Context, path string, params url.Values) (resp *http.Response, hedges int, err error) {
	ctx, cancel := context.WithTimeout(ctx, b.timeout)
	if len(b.urls) == 1 || b.hedge <= 0 {
		defer func() {
			if err != nil {
				cancel()
			}
		}()
		var lastErr error
		for i, u := range b.urls {
			resp, lastErr = b.attempt(ctx, u, path, params)
			if lastErr == nil {
				// The response body must outlive this call; cancel only
				// when the caller is done reading it.
				resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
				return resp, i, nil
			}
			var re *RemoteError
			if errors.As(lastErr, &re) && re.Status/100 == 4 {
				break // caller error: every replica would answer the same
			}
		}
		return nil, len(b.urls) - 1, lastErr
	}

	type outcome struct {
		resp *http.Response
		err  error
	}
	results := make(chan outcome, len(b.urls))
	launched := 0
	launch := func(u string) {
		launched++
		go func() {
			r, err := b.attempt(ctx, u, path, params)
			results <- outcome{r, err}
		}()
	}
	launch(b.urls[0])
	timer := time.NewTimer(b.hedge)
	defer timer.Stop()
	var lastErr error
	for pending := launched; pending > 0 || launched < len(b.urls); {
		select {
		case out := <-results:
			pending--
			if out.err == nil {
				out.resp.Body = &cancelOnClose{ReadCloser: out.resp.Body, cancel: cancel}
				// Close losing hedge responses in the background.
				go func(pending int) {
					for i := 0; i < pending; i++ {
						if late := <-results; late.resp != nil {
							late.resp.Body.Close()
						}
					}
				}(pending)
				return out.resp, launched - 1, nil
			}
			lastErr = out.err
			if pending == 0 && launched < len(b.urls) {
				launch(b.urls[launched])
				pending++
			}
		case <-timer.C:
			if launched < len(b.urls) {
				launch(b.urls[launched])
				pending++
				timer.Reset(b.hedge)
			}
		case <-ctx.Done():
			cancel()
			return nil, launched - 1, ctx.Err()
		}
	}
	cancel()
	return nil, launched - 1, lastErr
}

// cancelOnClose ties a context cancel to the response body's lifetime.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// getJSON runs a hedged GET, decodes the answer and returns the
// server's X-Shards-Failed count.
func (b *RemoteBackend) getJSON(ctx context.Context, path string, params url.Values, v any) (failed int, err error) {
	resp, _, err := b.hedged(ctx, path, params)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return shardsFailed(resp.Header), json.NewDecoder(resp.Body).Decode(v)
}

// shardsFailed reads the X-Shards-Failed header a federated server
// sets on a partial answer; 0 when absent or malformed.
func shardsFailed(h http.Header) int {
	n, _ := strconv.Atoi(h.Get("X-Shards-Failed"))
	return max(n, 0)
}

// queryParams renders a Query as the /events parameter set.
func queryParams(q Query) url.Values {
	params := url.Values{}
	if !q.From.IsZero() {
		params.Set("from", q.From.Format(time.RFC3339Nano))
	}
	if !q.To.IsZero() {
		params.Set("to", q.To.Format(time.RFC3339Nano))
	}
	if q.Prefix.IsValid() {
		params.Set("prefix", q.Prefix.String())
	}
	if q.Mode != PrefixExact {
		params.Set("mode", FormatPrefixMode(q.Mode))
	}
	if q.OriginASN != 0 {
		params.Set("origin", strconv.FormatUint(uint64(q.OriginASN), 10))
	}
	if q.Provider != nil {
		params.Set("provider", q.Provider.String())
	}
	if q.Community != 0 {
		params.Set("community", q.Community.String())
	}
	if q.MinDuration > 0 {
		params.Set("min_duration", q.MinDuration.String())
	}
	if q.MaxDuration > 0 {
		params.Set("max_duration", q.MaxDuration.String())
	}
	if q.Limit > 0 {
		params.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Enrich {
		params.Set("enrich", "1")
	}
	return params
}

// maxRemoteLimit is the explicit limit a remote Records call sends
// when the caller wants everything: shard handlers cap unlimited JSON
// queries at their own default, which would silently truncate a
// federated merge.
const maxRemoteLimit = 1 << 30

// Records implements Backend over GET /events (JSON envelope).
func (b *RemoteBackend) Records(ctx context.Context, q Query) (*RecordSet, error) {
	began := time.Now()
	params := queryParams(q)
	if q.Limit <= 0 {
		params.Set("limit", strconv.Itoa(maxRemoteLimit))
	}
	var envelope struct {
		Total   int            `json:"total"`
		Scanned int            `json:"scanned"`
		Events  []*EventRecord `json:"events"`
	}
	failed, err := b.getJSON(ctx, "/events", params, &envelope)
	if err != nil {
		return nil, err
	}
	return &RecordSet{
		Records:      envelope.Events,
		Total:        envelope.Total,
		Scanned:      envelope.Scanned,
		Elapsed:      time.Since(began),
		ShardsFailed: failed,
	}, nil
}

// recordLineKey is the minimal per-line decode a merge needs — the
// full record rides through as raw bytes. It defines what a line's key
// is: decodeRecordKey must agree with json.Unmarshal into it.
type recordLineKey struct {
	Prefix string    `json:"prefix"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Seq    uint64    `json:"seq"`
}

// decodeRecordKey recovers a line's merge key. It validates the whole
// line, then reads only the top-level seq, start, end and prefix values
// and skips the rest. Any line the fast pass does not fully handle —
// escaped or non-ASCII keys, keys matching a wanted one only
// case-insensitively, a seq that is not a plain integer, a time or
// prefix that is not a plain string — falls back to json.Unmarshal into
// recordLineKey, so both accept, reject and key exactly the same lines.
func decodeRecordKey(line []byte) (RecordKey, error) {
	if json.Valid(line) {
		if k, ok := scanRecordKey(line); ok {
			return k, nil
		}
	}
	var key recordLineKey
	if err := json.Unmarshal(line, &key); err != nil {
		return RecordKey{}, err
	}
	return RecordKey{
		End:    key.End.UnixNano(),
		Seq:    key.Seq,
		Start:  key.Start.UnixNano(),
		Prefix: key.Prefix,
	}, nil
}

// scanRecordKey is decodeRecordKey's fast pass over a line json.Valid
// accepted; ok is false when the line needs the full decoder.
func scanRecordKey(line []byte) (k RecordKey, ok bool) {
	var start, end time.Time
	i := skipSpace(line, 0)
	if line[i] != '{' {
		return k, false
	}
	i = skipSpace(line, i+1)
	for line[i] != '}' {
		j := stringEnd(line, i) // line[i] is the key's opening quote
		name := line[i+1 : j-1]
		if !plainASCII(name) {
			return k, false
		}
		i = skipSpace(line, skipSpace(line, j)+1) // past the colon
		next := skipValue(line, i)
		val := line[i:next]
		switch string(name) {
		case "seq":
			seq, ok := parseSeq(val)
			if !ok {
				return k, false
			}
			k.Seq = seq
		case "start", "end":
			t := &start
			if name[0] == 'e' {
				t = &end
			}
			if val[0] != '"' || t.UnmarshalJSON(val) != nil {
				return k, false
			}
		case "prefix":
			if val[0] != '"' {
				return k, false
			}
			s := val[1 : len(val)-1]
			if !plainASCII(s) {
				return k, false
			}
			k.Prefix = string(s)
		default:
			if foldsToKeyField(name) {
				return k, false
			}
		}
		i = skipSpace(line, next)
		if line[i] == ',' {
			i = skipSpace(line, i+1)
		}
	}
	k.Start, k.End = start.UnixNano(), end.UnixNano()
	return k, true
}

// plainASCII reports whether a JSON string body decodes to itself: no
// escapes, no bytes json.Unmarshal would rewrite as invalid UTF-8.
func plainASCII(s []byte) bool {
	for _, c := range s {
		if c == '\\' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// foldsToKeyField reports whether an ASCII key names a recordLineKey
// field case-insensitively, as json.Unmarshal matches keys.
func foldsToKeyField(name []byte) bool {
	switch len(name) {
	case 3:
		return bytes.EqualFold(name, []byte("seq")) || bytes.EqualFold(name, []byte("end"))
	case 5:
		return bytes.EqualFold(name, []byte("start"))
	case 6:
		return bytes.EqualFold(name, []byte("prefix"))
	}
	return false
}

// parseSeq parses a plain decimal uint64; anything else (sign,
// fraction, exponent, overflow, null) is left to the full decoder.
func parseSeq(val []byte) (uint64, bool) {
	for _, c := range val {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseUint(string(val), 10, 64)
	return n, err == nil
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the index just past the JSON value starting at
// b[i], which must be valid.
func skipValue(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			i = stringEnd(b, i) - 1
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth == 0 {
				return i + 1
			}
			if depth < 0 {
				return i // the enclosing object's end: a bare literal ended here
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	return i
}

// stringEnd returns the index just past the valid JSON string that
// starts at b[i]: the first quote not escaped by an odd run of
// backslashes.
func stringEnd(b []byte, i int) int {
	for {
		i += 1 + bytes.IndexByte(b[i+1:], '"')
		n := 0
		for b[i-1-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			return i + 1
		}
	}
}

// RecordLines implements Backend over GET /events?format=ndjson.
// Failover walks the URL set sequentially and only before the first
// body byte; once a stream is live its shard is committed.
func (b *RemoteBackend) RecordLines(ctx context.Context, q Query) (*RecordStream, error) {
	params := queryParams(q)
	params.Set("format", "ndjson")
	var resp *http.Response
	var lastErr error
	for _, u := range b.urls {
		resp, lastErr = b.attempt(ctx, u, "/events", params)
		if lastErr == nil {
			break
		}
		var re *RemoteError
		if errors.As(lastErr, &re) && re.Status/100 == 4 {
			break
		}
	}
	if lastErr != nil {
		return nil, lastErr
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	return &RecordStream{
		ShardsFailed: shardsFailed(resp.Header),
		next: func() (RecordLine, error) {
			for {
				raw, err := rd.ReadBytes('\n')
				line := bytes.TrimRight(raw, "\n")
				if len(line) == 0 {
					if err != nil {
						if err == io.EOF {
							return RecordLine{}, io.EOF
						}
						return RecordLine{}, err
					}
					continue // blank keep-alive line
				}
				key, jerr := decodeRecordKey(line)
				if jerr != nil {
					return RecordLine{}, fmt.Errorf("shard %s: bad NDJSON line: %v", b.name, jerr)
				}
				// The line must be owned by the caller: ReadBytes
				// allocates per line, so no copy is needed.
				return RecordLine{Key: key, Line: line}, nil
			}
		},
		close: func() { resp.Body.Close() },
	}, nil
}

// Figure4 implements Backend over GET /figure4.
func (b *RemoteBackend) Figure4(ctx context.Context, start time.Time, days int) (*Figure4Result, error) {
	params := url.Values{}
	params.Set("start", start.UTC().Format(time.RFC3339))
	params.Set("days", strconv.Itoa(days))
	var series []DailyPoint
	failed, err := b.getJSON(ctx, "/figure4", params, &series)
	if err != nil {
		return nil, err
	}
	return &Figure4Result{Series: series, ShardsFailed: failed}, nil
}

// Figure4Sets implements Backend over GET /figure4?shape=sets.
func (b *RemoteBackend) Figure4Sets(ctx context.Context, start time.Time, days int) (*Figure4Sets, error) {
	params := url.Values{}
	params.Set("shape", "sets")
	params.Set("start", start.UTC().Format(time.RFC3339))
	params.Set("days", strconv.Itoa(days))
	var sets Figure4Sets
	if _, err := b.getJSON(ctx, "/figure4", params, &sets); err != nil {
		return nil, err
	}
	return &sets, nil
}

// LegitimacySummary implements Backend over GET /legitimacy.
func (b *RemoteBackend) LegitimacySummary(ctx context.Context, q Query) (*LegitimacySummary, error) {
	sum := newLegitimacySummary()
	if _, err := b.getJSON(ctx, "/legitimacy", queryParams(q), sum); err != nil {
		return nil, err
	}
	return sum, nil
}

// Stats implements Backend over GET /stats. Extra sections a shard
// serves (the detector block) are ignored; a shard that is itself a
// federation forwards its shards block.
func (b *RemoteBackend) Stats(ctx context.Context) (*BackendStats, error) {
	var stats BackendStats
	if _, err := b.getJSON(ctx, "/stats", nil, &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// Healthz implements Backend over GET /healthz. A reachable-but-
// degraded shard answers 503 with a JSON body; both that and a plain
// 200 parse here. An unreachable shard is "down".
func (b *RemoteBackend) Healthz(ctx context.Context) *ShardHealth {
	h := &ShardHealth{Name: b.name, Status: "down"}
	ctx, cancel := context.WithTimeout(ctx, b.timeout)
	defer cancel()
	var lastErr error
	for _, u := range b.urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/healthz", nil)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := b.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		var body struct {
			Status string            `json:"status"`
			Events int               `json:"events"`
			Checks map[string]string `json:"checks"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		h.Status = body.Status
		h.Events = body.Events
		h.Checks = body.Checks
		if h.Status == "" {
			h.Status = "degraded"
		}
		return h
	}
	if lastErr != nil {
		h.Err = lastErr.Error()
	}
	return h
}
