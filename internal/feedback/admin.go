package feedback

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/engine"
)

// AdminClient implements Lifecycle over rapidserve's admin HTTP API, so
// cmd/rapidfeed can drive the lifecycle of a serving process it does not
// share memory with. Token is the bearer admin token (empty works only
// against a loopback listener, matching the server's guard).
type AdminClient struct {
	BaseURL string
	Token   string
	// HTTP is the client used for requests; nil uses a 10s-timeout default.
	HTTP *http.Client
}

func (c *AdminClient) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (c *AdminClient) do(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("feedback: admin %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Versions implements Lifecycle via GET /admin/models.
func (c *AdminClient) Versions() ([]engine.VersionStatus, error) {
	var out struct {
		Versions []engine.VersionStatus `json:"versions"`
	}
	if err := c.do(http.MethodGet, "/admin/models", nil, &out); err != nil {
		return nil, err
	}
	return out.Versions, nil
}

// Load implements Lifecycle via POST /admin/models/load.
func (c *AdminClient) Load(version string) error {
	return c.do(http.MethodPost, "/admin/models/load", map[string]string{"version": version}, nil)
}

// Promote implements Lifecycle via POST /admin/models/promote.
func (c *AdminClient) Promote(version string) error {
	return c.do(http.MethodPost, "/admin/models/promote", map[string]string{"version": version}, nil)
}
