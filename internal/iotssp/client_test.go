package iotssp

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/lineconn"
)

// testClient is the smallest identify client the package's tests drive
// a Server with: one lineconn connection, pipelined and correlated by
// line echo, redialling lazily after a sever. Production gateways use
// gateway.Pool, which adds pooling, retries and the v4 wire.
type testClient struct {
	conn *lineconn.Conn[Response]
}

func newTestClient(addr string) *testClient {
	return &testClient{conn: lineconn.New[Response](addr, lineconn.Options[Response]{})}
}

func (c *testClient) Close() { c.conn.Close() }

// Identify submits one packed fingerprint report and returns the
// verdict; a service error answer is returned as an error.
func (c *testClient) Identify(ctx context.Context, mac string, fp *fingerprint.Fingerprint) (Response, error) {
	report, err := fingerprint.MarshalReportPacked(mac, fp)
	if err != nil {
		return Response{}, err
	}
	body, err := json.Marshal(Request{Fingerprint: report})
	if err != nil {
		return Response{}, err
	}
	resp, err := c.conn.RoundTrip(ctx, append(body, '\n'), 10*time.Second)
	if err != nil {
		return Response{}, fmt.Errorf("identify %s: %w", mac, err)
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("service error: %s", resp.Error)
	}
	return resp, nil
}
